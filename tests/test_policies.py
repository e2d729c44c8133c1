"""Unit tests for the distribution policies against a stub cluster."""

import pytest

from repro.core import SimulationParams
from repro.logs import Request
from repro.policies import (
    ExtLARDPolicy,
    LARDPolicy,
    PRORDComponents,
    PRORDFeatures,
    PRORDPolicy,
    WRRPolicy,
)
from repro.sim import Dispatcher


class StubServer:
    def __init__(self, server_id, load=0, up=True):
        self.server_id = server_id
        self.load = load
        self.up = up


class StubCluster:
    """Minimal ClusterView implementation for policy unit tests."""

    def __init__(self, n=4, params=None):
        self.servers = [StubServer(i) for i in range(n)]
        self.dispatcher = Dispatcher()
        self.params = params or SimulationParams(n_backends=n)
        self.catalog = {}
        self.now = 0.0

    def set_loads(self, *loads):
        for s, load in zip(self.servers, loads):
            s.load = load


def req(path="/a", conn=0, embedded=False, parent=None):
    return Request(arrival=0.0, conn_id=conn, path=path, size=1024,
                   is_embedded=embedded, parent=parent)


class TestWRR:
    def test_round_robin_per_connection(self):
        c = StubCluster(3)
        p = WRRPolicy()
        p.bind(c)
        targets = [p.route(req(conn=i)).server_id for i in range(6)]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_connection_affinity(self):
        c = StubCluster(3)
        p = WRRPolicy()
        p.bind(c)
        first = p.route(req(conn=7)).server_id
        again = p.route(req(path="/other", conn=7)).server_id
        assert first == again

    def test_weights(self):
        c = StubCluster(2)
        p = WRRPolicy(weights=[2, 1])
        p.bind(c)
        targets = [p.route(req(conn=i)).server_id for i in range(6)]
        assert targets == [0, 0, 1, 0, 0, 1]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WRRPolicy(weights=[0, 1])
        c = StubCluster(3)
        p = WRRPolicy(weights=[1, 1])
        with pytest.raises(ValueError, match="weights for"):
            p.bind(c)

    def test_never_dispatches(self):
        c = StubCluster(2)
        p = WRRPolicy()
        p.bind(c)
        assert not p.route(req()).dispatched

    def test_connection_close_releases_state(self):
        c = StubCluster(2)
        p = WRRPolicy()
        p.bind(c)
        p.route(req(conn=1))
        p.on_connection_close(1)
        # A reused conn id draws a fresh round-robin slot.
        assert p.route(req(conn=1)).server_id == 1


class TestLARD:
    def test_first_request_assigns_least_loaded(self):
        c = StubCluster(3)
        c.set_loads(5, 1, 3)
        p = LARDPolicy()
        p.bind(c)
        d = p.route(req("/x"))
        assert d.server_id == 1
        assert d.dispatched

    def test_assignment_sticks(self):
        c = StubCluster(3)
        c.set_loads(0, 1, 2)
        p = LARDPolicy()
        p.bind(c)
        assert p.route(req("/x")).server_id == 0
        c.set_loads(10, 1, 2)  # moderate load: stays put
        assert p.route(req("/x")).server_id == 0
        assert p.assignments == 1

    def test_rebalance_on_extreme_load(self):
        c = StubCluster(3, params=SimulationParams(
            n_backends=3, lard_t_low=5, lard_t_high=10))
        p = LARDPolicy()
        p.bind(c)
        c.set_loads(0, 3, 3)
        assert p.route(req("/x")).server_id == 0
        c.set_loads(21, 3, 3)  # load > 2*T_high with idle servers around
        assert p.route(req("/x")).server_id == 1

    def test_rebalance_needs_less_loaded_target(self):
        c = StubCluster(2, params=SimulationParams(
            n_backends=2, lard_t_low=5, lard_t_high=10))
        p = LARDPolicy()
        p.bind(c)
        c.set_loads(0, 0)
        assert p.route(req("/x")).server_id == 0
        # Everyone drowning equally: keep locality.
        c.set_loads(50, 49)
        assert p.route(req("/x")).server_id == 0

    def test_moderate_imbalance_rebalances(self):
        c = StubCluster(2, params=SimulationParams(
            n_backends=2, lard_t_low=5, lard_t_high=10))
        p = LARDPolicy()
        p.bind(c)
        c.set_loads(0, 0)
        p.route(req("/x"))
        c.set_loads(12, 2)  # above T_high with an idle-ish peer
        assert p.route(req("/x")).server_id == 1

    def test_not_persistent(self):
        assert LARDPolicy.persistent_connections is False


class TestExtLARD:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ExtLARDPolicy(mode="bogus")

    def test_handoff_mode_moves_connection(self):
        c = StubCluster(2)
        p = ExtLARDPolicy(mode="handoff")
        p.bind(c)
        c.set_loads(0, 5)
        d1 = p.route(req("/x", conn=1))
        assert d1.server_id == 0
        # Another path already assigned elsewhere: connection follows.
        c.set_loads(5, 0)
        d2 = p.route(req("/y", conn=1))
        assert d2.server_id == 1
        assert not d2.forwarded

    def test_forwarding_mode_relays(self):
        c = StubCluster(2)
        p = ExtLARDPolicy(mode="forwarding")
        p.bind(c)
        c.set_loads(0, 5)
        assert p.route(req("/x", conn=1)).server_id == 0
        c.set_loads(5, 0)
        d = p.route(req("/y", conn=1))
        assert d.server_id == 1
        assert d.forwarded

    def test_forwarding_same_server_not_relayed(self):
        c = StubCluster(2)
        p = ExtLARDPolicy(mode="forwarding")
        p.bind(c)
        p.route(req("/x", conn=1))
        d = p.route(req("/x", conn=1))
        assert not d.forwarded

    def test_always_dispatches(self):
        c = StubCluster(2)
        p = ExtLARDPolicy()
        p.bind(c)
        assert p.route(req()).dispatched
        assert p.route(req()).dispatched


class TestPRORD:
    def make(self, n=4, features=None, components=None):
        c = StubCluster(n)
        p = PRORDPolicy(components or PRORDComponents.empty(),
                        features=features or PRORDFeatures.all())
        p.bind(c)
        return c, p

    def test_embedded_follows_connection(self):
        c, p = self.make()
        c.set_loads(0, 1, 1, 1)
        main = p.route(req("/page.html", conn=1))
        assert main.dispatched
        emb = p.route(req("/img.gif", conn=1, embedded=True,
                          parent="/page.html"))
        assert emb.server_id == main.server_id
        assert not emb.dispatched
        assert p.flow_counts()["embedded_forwarded"] == 1

    def test_embedded_without_context_dispatches(self):
        c, p = self.make()
        d = p.route(req("/img.gif", conn=9, embedded=True, parent="/p"))
        assert d.dispatched

    def test_assignment_routing_skips_dispatcher(self):
        c, p = self.make()
        first = p.route(req("/page.html", conn=1))
        assert first.dispatched
        second = p.route(req("/page.html", conn=2))
        assert second.server_id == first.server_id
        assert not second.dispatched
        assert p.flow_counts()["assignment_routed"] == 1

    def test_features_off_always_dispatches(self):
        c, p = self.make(features=PRORDFeatures.none())
        p.route(req("/page.html", conn=1))
        d = p.route(req("/page.html", conn=2))
        assert d.dispatched
        emb = p.route(req("/i.gif", conn=1, embedded=True, parent="/p"))
        assert emb.dispatched

    def test_bundle_prefetch_directives(self):
        from repro.mining import BundleTable
        comps = PRORDComponents(bundles=BundleTable(
            {"/page.html": ("/i1.gif", "/i2.gif")}))
        c, p = self.make(components=comps)
        d = p.route(req("/page.html", conn=1))
        paths = {x.path for x in d.prefetches}
        assert paths == {"/i1.gif", "/i2.gif"}
        assert all(x.server_id == d.server_id for x in d.prefetches)

    def test_bundle_prefetches_follow_each_backend(self):
        from repro.mining import BundleTable
        comps = PRORDComponents(bundles=BundleTable(
            {"/page.html": ("/i1.gif", "/i2.gif")}))
        c, p = self.make(components=comps)
        c.set_loads(0, 1, 1, 1)
        first = p.route(req("/page.html", conn=1))
        assert first.server_id == 0
        # Overload the page's home: the next view goes elsewhere, and
        # so must its bundle.
        c.set_loads(100, 0, 1, 1)
        second = p.route(req("/page.html", conn=2))
        assert second.server_id == 1
        for d in (first, second):
            assert [(x.server_id, x.path) for x in d.prefetches] == [
                (d.server_id, "/i1.gif"), (d.server_id, "/i2.gif")]
        assert p._prefetch_loc == {"/i1.gif": 1, "/i2.gif": 1}

    def test_max_bundle_prefetch_cap(self):
        from repro.mining import BundleTable
        comps = PRORDComponents(bundles=BundleTable(
            {"/p.html": tuple(f"/i{k}.gif" for k in range(20))}))
        c = StubCluster(2)
        p = PRORDPolicy(comps, max_bundle_prefetch=3)
        p.bind(c)
        assert len(p.route(req("/p.html")).prefetches) == 3

    def test_nav_prefetch_targets_home_server(self):
        from repro.mining import DependencyGraph, PrefetchPredictor
        g = DependencyGraph(order=2)
        for _ in range(10):
            g.add_sequence(["/a.html", "/b.html"])
        comps = PRORDComponents(predictor=PrefetchPredictor(
            g, threshold=0.5, online_update=False))
        c, p = self.make(components=comps)
        # Home /b.html on server 2 via a previous connection.
        c.set_loads(3, 3, 0, 3)
        db = p.route(req("/b.html", conn=5))
        assert db.server_id == 2
        # Now a new connection reads /a.html; the predictor says /b.html
        # is next; the prefetch must go to /b.html's home (server 2).
        c.set_loads(0, 3, 3, 3)
        da = p.route(req("/a.html", conn=6))
        assert da.server_id == 0
        assert any(x.path == "/b.html" and x.server_id == 2
                   for x in da.prefetches)

    def test_prefetch_routing_follows_prefetched_page(self):
        from repro.mining import DependencyGraph, PrefetchPredictor
        g = DependencyGraph(order=2)
        for _ in range(10):
            g.add_sequence(["/a.html", "/b.html"])
        comps = PRORDComponents(predictor=PrefetchPredictor(
            g, threshold=0.5, online_update=False))
        c, p = self.make(components=comps)
        c.set_loads(0, 3, 3, 3)
        da = p.route(req("/a.html", conn=6))
        # Simulate the prefetch landing in server 0's cache.
        c.dispatcher.on_insert(da.server_id, "/b.html")
        db = p.route(req("/b.html", conn=6))
        assert db.server_id == da.server_id
        assert not db.dispatched
        assert p.flow_counts()["prefetch_routed"] == 1

    def test_connection_close_cleans_state(self):
        from repro.mining import DependencyGraph, PrefetchPredictor
        g = DependencyGraph().train([["/a.html", "/b.html"]])
        pred = PrefetchPredictor(g, online_update=False)
        comps = PRORDComponents(predictor=pred)
        c, p = self.make(components=comps)
        p.route(req("/a.html", conn=3))
        assert pred.open_connections == 1
        p.on_connection_close(3)
        assert pred.open_connections == 0

    def test_invalid_max_bundle(self):
        with pytest.raises(ValueError):
            PRORDPolicy(max_bundle_prefetch=-1)

    def test_unbound_policy_raises(self):
        p = PRORDPolicy()
        with pytest.raises(RuntimeError, match="not bound"):
            p.route(req())

    def test_feature_factories(self):
        none = PRORDFeatures.none()
        assert not any([none.embedded_forwarding, none.prefetch_routing,
                        none.bundle_prefetch, none.nav_prefetch])
        allf = PRORDFeatures.all()
        assert all([allf.embedded_forwarding, allf.prefetch_routing,
                    allf.bundle_prefetch, allf.nav_prefetch])
        one = none.with_(bundle_prefetch=True)
        assert one.bundle_prefetch and not one.nav_prefetch

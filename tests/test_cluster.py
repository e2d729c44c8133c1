"""Integration tests for the cluster simulator."""

import pytest

from repro.core import SimulationParams
from repro.logs import Request, Trace
from repro.policies import (
    ExtLARDPolicy,
    LARDPolicy,
    PRORDComponents,
    PRORDPolicy,
    WRRPolicy,
)
from repro.sim import ClusterSimulator


def trace_of(reqs, name="t"):
    return Trace(reqs, name=name)


def simple_trace(n=20, n_conns=4, size=2048):
    reqs = []
    for i in range(n):
        reqs.append(Request(arrival=i * 0.01, conn_id=i % n_conns,
                            path=f"/f{i % 8}", size=size))
    return trace_of(reqs)


def params(n=2, **kw):
    kw.setdefault("cache_bytes", 1 << 20)
    return SimulationParams(n_backends=n, **kw)


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ClusterSimulator(trace_of([]), WRRPolicy(), params())

    def test_bad_warmup(self):
        with pytest.raises(ValueError):
            ClusterSimulator(simple_trace(), WRRPolicy(), params(),
                             warmup_fraction=1.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            ClusterSimulator(simple_trace(), WRRPolicy(), params(),
                             window_s=0)

    def test_runs_once(self):
        c = ClusterSimulator(simple_trace(), WRRPolicy(), params())
        c.run()
        with pytest.raises(RuntimeError, match="runs once"):
            c.run()

    def test_policy_routing_out_of_range(self):
        class BadPolicy(WRRPolicy):
            def route(self, request):
                from repro.policies import RoutingDecision
                return RoutingDecision(server_id=99)
        c = ClusterSimulator(simple_trace(), BadPolicy(), params())
        with pytest.raises(ValueError, match="unknown server"):
            c.run()


class TestCompletion:
    @pytest.mark.parametrize("policy_cls", [
        WRRPolicy, LARDPolicy, ExtLARDPolicy, PRORDPolicy,
    ])
    def test_all_requests_complete(self, policy_cls):
        trace = simple_trace(n=50)
        c = ClusterSimulator(trace, policy_cls(), params(n=3),
                             warmup_fraction=0.0)
        result = c.run()
        assert result.report.completed == 50

    def test_deterministic_runs(self):
        r1 = ClusterSimulator(simple_trace(), LARDPolicy(), params()).run()
        r2 = ClusterSimulator(simple_trace(), LARDPolicy(), params()).run()
        assert r1.report == r2.report

    def test_time_normalised_traces(self):
        # Epoch-style timestamps must not break the simulation clock.
        reqs = [Request(arrival=1e9 + i * 0.01, conn_id=i, path="/a",
                        size=1024) for i in range(5)]
        result = ClusterSimulator(trace_of(reqs), WRRPolicy(), params(),
                                  warmup_fraction=0.0).run()
        assert result.report.completed == 5
        assert result.report.mean_response_s < 1.0


class TestAccounting:
    def test_wrr_connection_costs(self):
        # 20 requests over 4 persistent connections.
        trace = simple_trace(n=20, n_conns=4)
        result = ClusterSimulator(trace, WRRPolicy(), params(),
                                  warmup_fraction=0.0).run()
        assert result.report.connections == 4
        # One initial handoff per connection, no moves (WRR affinity).
        assert result.report.handoffs == 4
        assert result.report.dispatches == 0

    def test_lard_per_request_costs(self):
        trace = simple_trace(n=20, n_conns=4)
        result = ClusterSimulator(trace, LARDPolicy(), params(),
                                  warmup_fraction=0.0).run()
        # HTTP/1.0-style: every request pays setup + handoff + dispatch.
        assert result.report.connections == 20
        assert result.report.handoffs == 20
        assert result.report.dispatches == 20

    def test_prord_dispatch_collapse(self):
        reqs = []
        t = 0.0
        for conn in range(6):
            t += 0.05
            reqs.append(Request(arrival=t, conn_id=conn,
                                path="/page.html", size=4096))
            for k in range(3):
                t += 0.001
                reqs.append(Request(arrival=t, conn_id=conn,
                                    path=f"/i{k}.gif", size=1024,
                                    is_embedded=True, parent="/page.html"))
        trace = trace_of(reqs)
        result = ClusterSimulator(trace, PRORDPolicy(), params(),
                                  warmup_fraction=0.0).run()
        # Only the very first page request needs a dispatch; later pages
        # ride the assignment table and embedded objects are forwarded.
        assert result.report.dispatches == 1
        assert result.report.completed == 24

    def test_forwarding_mode_counts_no_midstream_handoffs(self):
        # Two files, two servers: in forwarding mode the connection
        # stays at its bound backend regardless of where content lives.
        reqs = [Request(arrival=i * 0.01, conn_id=0,
                        path=f"/f{i % 2}", size=2048) for i in range(10)]
        fwd = ClusterSimulator(trace_of(reqs),
                               ExtLARDPolicy(mode="forwarding"),
                               params(), warmup_fraction=0.0).run()
        assert fwd.report.handoffs == 1  # initial placement only

    def test_prefetch_counters_flow_to_report(self):
        from repro.mining import BundleTable
        comps = PRORDComponents(bundles=BundleTable(
            {"/page.html": ("/i0.gif", "/i1.gif")}))
        reqs = [Request(arrival=0.0, conn_id=0, path="/page.html",
                        size=4096),
                Request(arrival=1.0, conn_id=0, path="/i0.gif", size=1024,
                        is_embedded=True, parent="/page.html"),
                Request(arrival=1.1, conn_id=0, path="/i1.gif", size=1024,
                        is_embedded=True, parent="/page.html")]
        result = ClusterSimulator(trace_of(reqs), PRORDPolicy(comps),
                                  params(), warmup_fraction=0.0).run()
        assert result.report.prefetches_issued == 2
        assert result.report.prefetch_useful == 2
        assert result.report.prefetch_precision == 1.0
        # The embedded objects were prefetched well before their demand.
        assert result.report.hit_rate == pytest.approx(2 / 3)


class TestResultShape:
    def test_summary_and_fields(self):
        result = ClusterSimulator(simple_trace(), WRRPolicy(),
                                  params(n=3)).run()
        assert result.policy_name == "wrr"
        assert result.n_backends == 3
        assert len(result.server_utilizations) == 3
        assert 0 <= result.frontend_utilization <= 1
        assert "wrr" in result.summary()
        assert result.throughput_rps > 0
        assert 0 <= result.hit_rate <= 1

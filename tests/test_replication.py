"""Tests for the Algorithm-3 replication engine."""

import math

import pytest

from repro.core import SimulationParams
from repro.logs import Request, Trace
from repro.mining import PopularityTracker, RankTable
from repro.policies import ReplicationEngine, WRRPolicy
from repro.sim import ClusterSimulator


def make_cluster(n=4, reqs=None, cache_bytes=1 << 20, **params):
    reqs = reqs or [Request(arrival=float(i), conn_id=i, path=f"/f{i}",
                            size=1024) for i in range(20)]
    trace = Trace(reqs, name="t")
    p = SimulationParams(n_backends=n, cache_bytes=cache_bytes, **params)
    engine = ReplicationEngine()
    cluster = ClusterSimulator(trace, WRRPolicy(), p, replicator=engine)
    return cluster, engine


class TestTiers:
    def test_desired_replicas_mapping(self):
        cluster, engine = make_cluster(n=8)
        assert engine.desired_replicas(1.0) == 8
        assert engine.desired_replicas(0.85) == 8   # >= T1 (0.8)
        assert engine.desired_replicas(0.5) == 6    # 3/4 tier
        assert engine.desired_replicas(0.25) == 4   # 1/2 tier
        assert engine.desired_replicas(0.15) is None  # no change
        assert engine.desired_replicas(0.05) == 0   # none

    def test_tier_floor_one(self):
        cluster, engine = make_cluster(n=1)
        assert engine.desired_replicas(0.5) == 1
        assert engine.desired_replicas(0.3) == 1

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ReplicationEngine(max_round_fraction=0)
        # The overrides take SimulationParams' bounds: a period of 0
        # would reschedule the round at the same instant forever.
        for interval_s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="interval_s"):
                ReplicationEngine(interval_s=interval_s)
        for t1 in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="t1"):
                ReplicationEngine(t1=t1)
        engine = ReplicationEngine(interval_s=0.5, t1=1.0)
        assert (engine.interval_s, engine.t1) == (0.5, 1.0)

    def test_unbound_raises(self):
        with pytest.raises(RuntimeError):
            ReplicationEngine().run_round()


class TestRounds:
    def hot_requests(self):
        # All hot traffic rides one persistent connection so WRR parks
        # it on a single backend — replication must spread the copies.
        reqs = []
        t = 0.0
        for _ in range(200):
            t += 0.01
            reqs.append(Request(arrival=t, conn_id=0, path="/hot",
                                size=2048))
        for i in range(10):
            t += 0.01
            reqs.append(Request(arrival=t, conn_id=1000 + i,
                                path=f"/cold{i}", size=2048))
        return reqs

    def test_hot_file_replicated_everywhere(self):
        cluster, engine = make_cluster(n=4, reqs=self.hot_requests(),
                                       replication_interval_s=0.5)
        cluster.run()
        assert engine.rounds >= 1
        holders = [s for s in cluster.servers if s.cache.peek("/hot")]
        assert len(holders) == 4
        assert engine.replicas_pushed >= 3
        assert cluster.metrics.replicated_bytes >= 3 * 2048

    def test_cold_files_not_replicated(self):
        cluster, engine = make_cluster(n=4, reqs=self.hot_requests())
        cluster.run()
        for i in range(10):
            holders = [s for s in cluster.servers
                       if s.cache.peek(f"/cold{i}")]
            assert len(holders) <= 1

    def test_replicas_pinned(self):
        cluster, engine = make_cluster(n=4, reqs=self.hot_requests())
        cluster.run()
        pinned_somewhere = sum(
            1 for s in cluster.servers if s.cache.pinned_bytes > 0)
        assert pinned_somewhere >= 3

    def test_no_pinning_mode(self):
        reqs = self.hot_requests()
        trace = Trace(reqs, name="t")
        p = SimulationParams(n_backends=4, cache_bytes=1 << 20)
        engine = ReplicationEngine(pin_replicas=False)
        cluster = ClusterSimulator(trace, WRRPolicy(), p, replicator=engine)
        cluster.run()
        assert all(s.cache.pinned_bytes == 0 for s in cluster.servers)

    def test_budget_bounds_round(self):
        reqs = self.hot_requests()
        trace = Trace(reqs, name="t")
        # Cache 16 KB, budget fraction 0.25 -> 4 KB per round: at most
        # two 2 KB pushes per round.
        p = SimulationParams(n_backends=4, cache_bytes=16 * 1024,
                             replication_interval_s=1.0)
        engine = ReplicationEngine(max_round_fraction=0.25)
        cluster = ClusterSimulator(trace, WRRPolicy(), p, replicator=engine)
        cluster.run()
        assert engine.rounds >= 2
        assert engine.bytes_pushed <= engine.rounds * 4096

    def test_no_push_to_down_backend(self, monkeypatch):
        cluster, engine = make_cluster(n=4, reqs=self.hot_requests(),
                                       replication_interval_s=0.5)
        down = cluster.servers[3]
        down.fail()
        received = []
        monkeypatch.setattr(down, "receive_replica",
                            lambda path, size, **kw: received.append(path))
        cluster.run()
        assert engine.replicas_pushed >= 2
        assert received == []

    def test_empty_tracker_round_is_noop(self):
        cluster, engine = make_cluster()
        engine.bind(cluster)
        assert engine.run_round() == 0


class TestSeededPrior:
    def test_prior_drives_first_round(self):
        prior = RankTable({"/hot": 100, "/cold": 1})
        tracker = PopularityTracker(prior, half_life=60)
        reqs = [Request(arrival=float(i) * 0.5, conn_id=i, path="/other",
                        size=1024) for i in range(40)]
        trace = Trace(reqs, name="t")
        p = SimulationParams(n_backends=4, cache_bytes=1 << 20,
                             replication_interval_s=5.0)
        engine = ReplicationEngine(tracker)
        cluster = ClusterSimulator(trace, WRRPolicy(), p, replicator=engine)
        # /hot never appears in the trace catalog, so it cannot be
        # replicated (no size); but the round must not crash and the
        # decayed prior must still rank it.
        cluster.run()
        assert engine.rounds >= 1

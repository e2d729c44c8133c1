"""Tests for failure injection: crashes, recoveries, policy failover."""

import pytest

from repro.core import SimulationParams
from repro.logs import Request, SiteSpec, Trace, TrafficSpec, build_site
from repro.policies import (
    ExtLARDPolicy,
    LARDPolicy,
    PRORDPolicy,
    WRRPolicy,
)
from repro.sim import (
    BackendServer,
    ClusterSimulator,
    Failure,
    FailureSchedule,
    Simulator,
    run_closed_loop,
)


def steady_trace(n=200, n_conns=10, gap=0.01):
    reqs = [Request(arrival=i * gap, conn_id=i % n_conns,
                    path=f"/f{i % 6}.html", size=2048) for i in range(n)]
    return Trace(reqs, name="steady")


def params(n=3):
    return SimulationParams(n_backends=n, cache_bytes=1 << 20)


class TestFailureSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            Failure(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Failure(0, 0.0, 0.0)

    def test_unknown_server_rejected(self):
        sched = FailureSchedule.single(99, at=0.1, duration=0.1)
        with pytest.raises(ValueError, match="unknown server"):
            ClusterSimulator(steady_trace(), WRRPolicy(), params(),
                             failures=sched)

    def test_rolling_builder(self):
        sched = FailureSchedule.rolling([0, 1, 2], start=1.0,
                                        duration=0.5, gap=0.25)
        assert len(sched) == 3
        assert sched.failures[1].at == pytest.approx(1.75)

    def test_rolling_negative_gap(self):
        with pytest.raises(ValueError):
            FailureSchedule.rolling([0], start=0, duration=1, gap=-1)


class TestServerFailure:
    def test_fail_clears_cache(self):
        sim = Simulator()
        srv = BackendServer(sim, 0, params(1))
        srv.cache.insert("/a", 1000)
        srv.fail()
        assert not srv.up
        assert len(srv.cache) == 0
        srv.recover()
        assert srv.up

    def test_down_server_refuses_proactive_work(self):
        sim = Simulator()
        srv = BackendServer(sim, 0, params(1))
        srv.fail()
        assert not srv.prefetch("/a", 1000)
        assert not srv.receive_replica("/a", 1000)


@pytest.mark.parametrize("policy_cls", [
    WRRPolicy, LARDPolicy, ExtLARDPolicy, PRORDPolicy,
])
class TestFailover:
    def test_no_requests_lost_and_down_server_avoided(self, policy_cls):
        # Server 0 is down for the middle of the run.
        sched = FailureSchedule.single(0, at=0.5, duration=1.0)
        cluster = ClusterSimulator(steady_trace(), policy_cls(), params(),
                                   warmup_fraction=0.0, failures=sched)
        result = cluster.run()
        assert result.report.completed == 200
        assert sched.crashes_fired == 1
        assert sched.recoveries_fired == 1
        # Requests arriving while server 0 was down went elsewhere.
        routed_to_0_during_outage = [
            r for r in cluster.metrics.records
            if r.server_id == 0 and 0.55 < r.arrival < 1.45
        ]
        assert routed_to_0_during_outage == []

    def test_in_flight_work_survives_crash_instant(self, policy_cls):
        # A crash exactly while requests are queued must not lose them.
        sched = FailureSchedule.single(1, at=0.203, duration=0.5)
        cluster = ClusterSimulator(steady_trace(n=300), policy_cls(),
                                   params(), warmup_fraction=0.0,
                                   failures=sched)
        result = cluster.run()
        assert result.report.completed == 300


class TestRecovery:
    def test_wrr_rejoins_via_new_connections(self):
        # Fresh connections keep appearing, so round robin reaches the
        # recovered backend again.
        reqs = [Request(arrival=i * 0.01, conn_id=i // 2,
                        path=f"/f{i % 6}.html", size=2048)
                for i in range(400)]
        sched = FailureSchedule.single(0, at=0.1, duration=0.3)
        cluster = ClusterSimulator(Trace(reqs, name="fresh"), WRRPolicy(),
                                   params(), warmup_fraction=0.0,
                                   failures=sched)
        cluster.run()
        late = [r for r in cluster.metrics.records
                if r.arrival > 1.0 and r.server_id == 0]
        assert late, "recovered backend must receive new connections"

    def test_lard_rejoins_via_rebalancing(self):
        # With tight thresholds the idle recovered backend attracts the
        # next rebalance (sticky assignments otherwise never return).
        p = SimulationParams(n_backends=3, cache_bytes=1 << 20,
                             lard_t_low=1, lard_t_high=1)
        # 64 KB responses at 1 ms spacing overload two backends (≈5 ms
        # service each), so queues build and the guard fires.
        reqs = [Request(arrival=i * 0.001, conn_id=i,
                        path=f"/f{i % 4}.html", size=64 * 1024)
                for i in range(600)]
        sched = FailureSchedule.single(0, at=0.05, duration=0.2)
        cluster = ClusterSimulator(Trace(reqs, name="hot"), LARDPolicy(),
                                   p, warmup_fraction=0.0, failures=sched)
        cluster.run()
        late = [r for r in cluster.metrics.records
                if r.arrival > 0.3 and r.server_id == 0]
        assert late, "rebalancing must re-include the recovered backend"


class TestFailureEffects:
    def test_hit_rate_dips_after_crash(self):
        # Whole-cluster rolling restart wipes every cache once.
        site = build_site(SiteSpec(categories=("a",), pages_per_category=30,
                                   seed=2))
        spec = TrafficSpec(think_time_mean=0.02, mean_session_pages=4,
                           max_session_pages=6)
        base = run_closed_loop(site, LARDPolicy(), params(2),
                               concurrency=8, duration_s=2.0, spec=spec)

        sched = FailureSchedule.rolling([0, 1], start=0.8, duration=0.2,
                                        gap=0.1)
        from repro.sim import ClosedLoopDriver
        driver = ClosedLoopDriver(site, LARDPolicy(), params(2),
                                  concurrency=8, duration_s=2.0, spec=spec)
        sched.install(driver.cluster)
        crashed = driver.run()
        assert crashed.report.completed > 100
        assert crashed.hit_rate < base.hit_rate


class TestOverlapRejection:
    def test_overlapping_outages_same_server_rejected(self):
        sched = FailureSchedule([
            Failure(0, at=1.0, duration=2.0),
            Failure(0, at=2.0, duration=1.0),  # lands inside [1, 3)
        ])
        with pytest.raises(ValueError, match="overlapping outages"):
            ClusterSimulator(steady_trace(), WRRPolicy(), params(),
                             failures=sched)

    def test_overlap_with_earlier_long_outage_rejected(self):
        # The second outage ends before the first; the third overlaps
        # the *first* (not its immediate predecessor) and must still be
        # caught.
        sched = FailureSchedule([
            Failure(0, at=0.5, duration=10.0),
            Failure(0, at=1.0, duration=0.1),
            Failure(0, at=2.0, duration=0.1),
        ])
        with pytest.raises(ValueError, match="overlapping outages"):
            ClusterSimulator(steady_trace(), WRRPolicy(), params(),
                             failures=sched)

    def test_back_to_back_outages_allowed(self):
        # Next crash exactly at the previous recovery: the recovery is
        # scheduled first, so equal-time events fire in the safe order.
        sched = FailureSchedule([
            Failure(0, at=0.2, duration=0.2),
            Failure(0, at=0.4, duration=0.2),
        ])
        result = ClusterSimulator(steady_trace(), WRRPolicy(), params(),
                                  failures=sched).run()
        assert sched.crashes_fired == 2
        assert sched.recoveries_fired == 2
        assert result.report.completed > 0

    def test_same_window_different_servers_allowed(self):
        sched = FailureSchedule([
            Failure(0, at=0.2, duration=0.5),
            Failure(1, at=0.3, duration=0.5),
        ])
        ClusterSimulator(steady_trace(), WRRPolicy(), params(),
                         failures=sched).run()
        assert sched.crashes_fired == 2

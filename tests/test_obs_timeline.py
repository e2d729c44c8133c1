"""Tests for timeline windows, coalescing bounds, and the recorder."""

import pickle

import pytest

from repro.core.config import SimulationParams
from repro.experiments.common import ExperimentScale, loaded_workload
from repro.obs import ServerWindow, TimelineRecorder, TimelineWindow
from repro.policies.lard import LARDPolicy
from repro.sim.cluster import ClusterSimulator

MICRO = ExperimentScale(
    name="micro",
    duration_s=2.0,
    session_rates={"synthetic": 200.0, "cs-department": 180.0,
                   "worldcup": 160.0},
    n_backends=4,
    think_time_mean=0.15,
    max_session_pages=6,
)


def server_window(cpu=0.1, queue=2, hits=5, misses=1, completions=3):
    return ServerWindow(
        cpu_busy_s=cpu, disk_busy_s=cpu / 2, queue_depth=queue,
        active=queue, cache_bytes=1000, cache_hits=hits,
        cache_misses=misses, completions=completions,
    )


def window(start, width=1.0, events=10, **kwargs):
    return TimelineWindow(
        start=start, width=width, events=events, completions=4,
        dispatches=2, handoffs=1, connections=1, frontend_busy_s=0.2,
        servers=(server_window(),),
        flows=kwargs.get("flows", (("dispatched", 2),)),
    )


class TestCoalesce:
    def test_server_window_deltas_sum_gauges_take_later(self):
        early = server_window(cpu=0.1, queue=2, hits=5)
        late = server_window(cpu=0.3, queue=7, hits=2)
        merged = early.coalesce(late)
        assert merged.cpu_busy_s == pytest.approx(0.4)
        assert merged.cache_hits == 7
        assert merged.completions == 6
        assert merged.queue_depth == 7  # gauge: later sample wins
        assert merged.active == 7

    def test_timeline_window_merge(self):
        merged = window(0.0).coalesce(window(1.0))
        assert merged.start == 0.0
        assert merged.width == 2.0
        assert merged.events == 20
        assert merged.completions == 8
        assert merged.frontend_busy_s == pytest.approx(0.4)
        assert dict(merged.flows) == {"dispatched": 4}

    def test_flow_keys_union(self):
        a = window(0.0, flows=(("dispatched", 1),))
        b = window(1.0, flows=(("prefetch_routed", 3),))
        merged = a.coalesce(b)
        assert dict(merged.flows) == {"dispatched": 1,
                                      "prefetch_routed": 3}


def run_recorded(window_s, max_windows=240):
    workload = loaded_workload("synthetic", MICRO)
    params = SimulationParams(n_backends=MICRO.n_backends,
                              cache_bytes=1 << 20)
    recorder = TimelineRecorder(window_s, max_windows=max_windows)
    cluster = ClusterSimulator(workload.trace, LARDPolicy(), params,
                               warmup_fraction=0.0)
    recorder.attach(cluster)
    result = cluster.run()
    return recorder.finalize(), result, cluster


class TestRecorder:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimelineRecorder(0.0)
        with pytest.raises(ValueError):
            TimelineRecorder(0.1, max_windows=7)  # odd
        with pytest.raises(ValueError):
            TimelineRecorder(0.1, max_windows=0)

    def test_windows_tile_the_run(self):
        timeline, _, cluster = run_recorded(0.05)
        assert len(timeline) >= 2
        for earlier, later in zip(timeline.windows, timeline.windows[1:]):
            assert later.start == pytest.approx(earlier.end)
        assert timeline.windows[-1].end == pytest.approx(cluster.sim.now)

    def test_totals_match_engine_and_metrics(self):
        timeline, _, cluster = run_recorded(0.05)
        totals = timeline.totals()
        assert totals["events"] == cluster.sim.events_processed
        assert totals["dispatches"] == cluster.metrics.dispatches
        assert totals["handoffs"] == cluster.metrics.handoffs
        assert totals["connections"] == cluster.metrics.connections
        # A recorder attached without Telemetry still sees completions.
        assert totals["completions"] == cluster.metrics.completed > 0
        for sid, server in enumerate(cluster.servers):
            assert sum(w.servers[sid].completions
                       for w in timeline.windows) == server.completed

    def test_busy_time_conserved(self):
        timeline, _, cluster = run_recorded(0.05)
        for sid, server in enumerate(cluster.servers):
            recorded = sum(w.servers[sid].cpu_busy_s
                           for w in timeline.windows)
            assert recorded == pytest.approx(server.cpu.cumulative_busy_s)

    def test_memory_bound_holds_and_deltas_survive_coalescing(self):
        bounded, _, cluster = run_recorded(0.002, max_windows=8)
        assert len(bounded) <= 8
        assert bounded.coalesce_rounds >= 1
        assert bounded.window_s == pytest.approx(
            0.002 * 2 ** bounded.coalesce_rounds)
        # Delta totals are exactly conserved across coalescing.
        totals = bounded.totals()
        assert totals["events"] == cluster.sim.events_processed
        assert totals["dispatches"] == cluster.metrics.dispatches

    def test_coalesced_equals_fine_grained_totals(self):
        fine, _, _ = run_recorded(0.002, max_windows=240)
        coarse, _, _ = run_recorded(0.002, max_windows=8)
        assert fine.totals() == coarse.totals()

    def test_coalesced_windows_match_a_direct_recording(self):
        # After each coalescing the open window closes on the doubled
        # grid, so every window holds what a recording made at the final
        # width from the start holds (power-of-two widths keep both
        # grids exact).
        coarse, _, _ = run_recorded(2.0 ** -9)
        assert coarse.coalesce_rounds >= 2
        direct, _, _ = run_recorded(coarse.window_s)
        assert direct.coalesce_rounds == 0

        def counts(timeline):
            return [(w.start, w.width, w.events, w.completions,
                     w.dispatches, w.handoffs, w.connections,
                     [(s.cache_hits, s.cache_misses, s.completions,
                       s.queue_depth, s.active) for s in w.servers])
                    for w in timeline.windows]

        assert counts(coarse) == counts(direct)

    def test_attach_twice_rejected(self):
        timeline, _, cluster = run_recorded(0.05)
        recorder = TimelineRecorder(0.05)
        recorder.attach(cluster)
        with pytest.raises(RuntimeError):
            recorder.attach(cluster)

    def test_finalize_twice_rejected(self):
        workload = loaded_workload("synthetic", MICRO)
        params = SimulationParams(n_backends=2, cache_bytes=1 << 20)
        recorder = TimelineRecorder(0.1)
        cluster = ClusterSimulator(workload.trace, LARDPolicy(), params)
        recorder.attach(cluster)
        cluster.run()
        recorder.finalize()
        with pytest.raises(RuntimeError):
            recorder.finalize()

    def test_timeline_is_picklable(self):
        timeline, _, _ = run_recorded(0.05)
        again = pickle.loads(pickle.dumps(timeline))
        assert again == timeline

    def test_series_views(self):
        timeline, _, _ = run_recorded(0.05)
        completions = timeline.series("completions")
        assert len(completions) == len(timeline)
        util = timeline.utilization_series(0)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in util)

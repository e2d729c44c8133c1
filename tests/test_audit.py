"""Tests for the simulation audit layer (runtime invariant checking)."""

import dataclasses
import pickle

import pytest

from repro.core import SimulationParams
from repro.experiments.common import ExperimentScale, loaded_workload
from repro.experiments.runner import Cell, run_grid
from repro.core.system import run_policy
from repro.logs import Request, Trace
from repro.obs import TimelineRecorder
from repro.policies import LARDPolicy, PRORDPolicy
from repro.policies.prord import PRORDComponents
from repro.sim import (
    AuditError,
    AuditSummary,
    ClusterSimulator,
    RequestTracer,
    SimulationAuditor,
)
from repro.sim.differential import DEFAULT_POLICIES

#: Tiny but non-trivial scale: seconds total for the whole module.
MICRO = ExperimentScale(
    name="micro",
    duration_s=2.0,
    session_rates={"synthetic": 200.0, "cs-department": 180.0,
                   "worldcup": 160.0},
    n_backends=4,
    think_time_mean=0.15,
    max_session_pages=6,
)


def micro_workload():
    return loaded_workload("synthetic", MICRO)


def report_fields(result):
    return dataclasses.asdict(result.report)


def small_trace(n=40, start=0.0):
    return Trace([
        Request(arrival=start + i * 0.01, conn_id=i % 5,
                path=f"/f{i % 4}.html", size=2048)
        for i in range(n)
    ], name="small")


def audited_cluster(policy=None, *, strict=True, interval=1,
                    tracer=None, start=0.0):
    auditor = SimulationAuditor(check_interval=interval, strict=strict)
    params = SimulationParams(n_backends=2, cache_bytes=1 << 20)
    cluster = ClusterSimulator(
        small_trace(start=start), policy or LARDPolicy(), params,
        warmup_fraction=0.0, auditor=auditor, tracer=tracer,
    )
    return cluster, auditor


class TestConstruction:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            SimulationAuditor(check_interval=0)

    def test_single_attachment(self):
        cluster, auditor = audited_cluster()
        with pytest.raises(RuntimeError, match="one run"):
            auditor.attach(cluster)

    def test_checks_require_attachment(self):
        with pytest.raises(RuntimeError, match="not attached"):
            SimulationAuditor().check_now()

    def test_one_auditor_per_cluster(self):
        cluster, _ = audited_cluster()
        with pytest.raises(RuntimeError, match="already has an auditor"):
            SimulationAuditor().attach(cluster)


class TestAttachedByCaller:
    """Observers attached to a built cluster, not passed to it."""

    def cluster(self):
        workload = micro_workload()
        params = SimulationParams(n_backends=MICRO.n_backends,
                                  cache_bytes=1 << 20)
        return ClusterSimulator(workload.trace, LARDPolicy(), params,
                                warmup_fraction=0.0)

    def test_direct_attach_ends_clean(self):
        cluster = self.cluster()
        auditor = SimulationAuditor()
        auditor.attach(cluster)
        summary = cluster.run().audit
        assert summary is not None and summary.clean
        assert summary.injected == summary.completed == len(cluster.trace)

    def test_recorder_and_auditor_in_either_order(self):
        timelines = []
        for recorder_first in (True, False):
            cluster = self.cluster()
            recorder = TimelineRecorder(0.05)
            auditor = SimulationAuditor()
            observers = ((recorder, auditor) if recorder_first
                         else (auditor, recorder))
            for observer in observers:
                observer.attach(cluster)
            assert cluster.run().audit.clean
            timeline = recorder.finalize()
            events = cluster.sim.events_processed
            assert auditor.events_seen == events
            assert timeline.totals()["events"] == events
            timelines.append(timeline)
        assert len(timelines[0]) > 1
        assert timelines[0] == timelines[1]


class TestCleanRuns:
    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    def test_policy_clean_and_bit_identical(self, policy_name):
        workload = micro_workload()

        def run(audit):
            return run_policy(
                workload, policy_name,
                SimulationParams(n_backends=MICRO.n_backends),
                cache_fraction=MICRO.cache_fraction,
                warmup_fraction=MICRO.warmup_fraction,
                window_s=MICRO.duration_s,
                audit=audit,
            )

        plain = run(False)
        audited = run(True)
        assert plain.audit is None
        summary = audited.audit
        assert isinstance(summary, AuditSummary)
        assert summary.clean
        assert summary.violations == 0
        assert summary.checks_run >= 1
        assert summary.events_seen > 0
        # The trace drains, so every injected request completed.
        assert summary.completed == summary.injected > 0
        # Auditing is pure observation: bit-identical report.
        assert report_fields(audited) == report_fields(plain)

    def test_summary_is_picklable(self):
        cluster, auditor = audited_cluster()
        result = cluster.run()
        clone = pickle.loads(pickle.dumps(result.audit))
        assert clone == result.audit

    def test_check_interval_paces_sweeps(self):
        sparse_cluster, sparse = audited_cluster(interval=1000)
        sparse_cluster.run()
        dense_cluster, dense = audited_cluster(interval=1)
        dense_cluster.run()
        assert dense.events_seen == sparse.events_seen
        # interval=1 sweeps once per event (+ the completion sweep).
        assert dense.checks_run == dense.events_seen + 1
        assert sparse.checks_run < dense.checks_run


class TestViolationDetection:
    """Corrupt one structure at a time; the matching check must fire."""

    def _ran(self, **kwargs):
        cluster, auditor = audited_cluster(**kwargs)
        cluster.run()
        return cluster, auditor

    def test_cache_byte_drift(self):
        cluster, auditor = self._ran()
        cluster.servers[0].cache._resident += 1
        with pytest.raises(AuditError, match=r"\[cache\]"):
            auditor.check_now()

    def test_cache_pinned_drift(self):
        cluster, auditor = self._ran()
        cluster.servers[0].cache._pinned_bytes += 3
        with pytest.raises(AuditError, match=r"\[cache\]"):
            auditor.check_now()

    def test_dispatcher_phantom_holder(self):
        cluster, auditor = self._ran()
        cluster.dispatcher.on_insert(0, "/ghost.html")
        with pytest.raises(AuditError, match="phantom"):
            auditor.check_now()

    def test_dispatcher_missing_entry(self):
        cluster, auditor = self._ran()
        server = cluster.servers[0]
        path = server.cache.contents()[0]
        cluster.dispatcher.on_evict(server.server_id, path)
        with pytest.raises(AuditError, match="missing from the locality"):
            auditor.check_now()

    def test_resource_busy_overrun(self):
        cluster, auditor = self._ran()
        cluster.servers[0].cpu.busy_time = 1e9
        with pytest.raises(AuditError, match=r"\[resources\]"):
            auditor.check_now()

    def test_prefetch_useful_overrun(self):
        cluster, auditor = self._ran()
        server = cluster.servers[0]
        server.prefetch_useful = server.prefetches_issued + 1
        with pytest.raises(AuditError, match="prefetch_useful"):
            auditor.check_now()

    def test_negative_inflight_connection(self):
        cluster, auditor = self._ran()
        cluster._remaining_per_conn[999] = -1
        with pytest.raises(AuditError, match="negative per-connection"):
            auditor.check_now()

    def test_flow_counts_identity(self):
        policy = PRORDPolicy(PRORDComponents.empty())
        cluster, auditor = self._ran(policy=policy)
        policy.routed_dispatched += 1
        with pytest.raises(AuditError, match="flow counts"):
            auditor.check_now()

    def test_clock_regression(self):
        cluster, auditor = self._ran()
        with pytest.raises(AuditError, match=r"\[clock\]"):
            auditor._on_event(-1.0)

    def test_out_of_order_conn_arrival(self):
        cluster, auditor = self._ran(start=1e9)
        with pytest.raises(AuditError, match="out of order") as exc:
            auditor.note_arrival(Request(arrival=1e9 - 5.0, conn_id=0,
                                         path="/late.html", size=10))
        # Routed requests keep their trace arrival; the check compares
        # simulated times, the trace arrival less the trace start.
        assert exc.value.snapshot["arrival"] == -5.0
        assert 0.0 <= exc.value.snapshot["previous_arrival"] <= cluster.sim.now

    def test_error_carries_snapshot(self):
        cluster, auditor = self._ran()
        cluster.servers[1].cache._resident += 7
        with pytest.raises(AuditError) as exc:
            auditor.check_now()
        assert exc.value.check == "cache"
        assert exc.value.snapshot["server"] == 1
        assert "resident_bytes" in exc.value.snapshot


class TestNonStrictMode:
    def test_violations_recorded_not_raised(self):
        tracer = RequestTracer()
        cluster, auditor = audited_cluster(strict=False, tracer=tracer)
        cluster.run()
        assert auditor.summary().clean
        before = len(tracer.events("audit"))
        cluster.servers[0].cache._resident += 1
        auditor.check_now()  # must not raise
        assert not auditor.summary().clean
        events = auditor.violation_events()
        assert events and events[-1].kind == "audit"
        assert events[-1].path == "cache"
        assert dict(events[-1].fields)["server"] == 0
        # The violation is mirrored onto the attached tracer.
        assert len(tracer.events("audit")) == before + 1


class TestGridAudit:
    def test_grid_audit_clean_and_identical(self):
        workload = micro_workload()
        cells = [Cell(workload=workload.name, policy=p)
                 for p in DEFAULT_POLICIES]
        kwargs = dict(workloads={workload.name: workload})
        plain = run_grid(cells, MICRO, jobs=0, **kwargs)
        audited = run_grid(cells, MICRO, jobs=0, audit=True, **kwargs)
        for p, a in zip(plain, audited):
            assert p.result.audit is None
            assert a.result.audit is not None and a.result.audit.clean
            assert report_fields(a.result) == report_fields(p.result)

    def test_grid_audit_survives_process_pool(self):
        workload = micro_workload()
        cells = [Cell(workload=workload.name, policy=p)
                 for p in ("wrr", "lard", "prord")]
        kwargs = dict(workloads={workload.name: workload}, audit=True)
        serial = run_grid(cells, MICRO, jobs=0, **kwargs)
        pooled = run_grid(cells, MICRO, jobs=2, **kwargs)
        for s, p in zip(serial, pooled):
            assert p.result.audit == s.result.audit
            assert p.result.audit.clean
            assert report_fields(p.result) == report_fields(s.result)

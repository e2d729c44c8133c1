"""Differential policy harness: equivalence and determinism checks.

The audit layer (:mod:`repro.sim.audit`) checks invariants *within* one
run; this module checks properties *across* runs — the cross-run
contracts the paper's PRORD-vs-LARD comparisons silently assume:

* **degenerate equivalence** — PRORD with every feature disabled
  (:meth:`PRORDFeatures.lard_equivalent`, empty mined components, no
  replicator, non-persistent connections) is classic LARD by
  construction, so its :class:`~repro.sim.stats.SimulationReport` must
  match LARD's **field for field**.  Any divergence means the PRORD
  routing core drifted away from its LARD base and every ablation
  delta in Fig. 9 is suspect;
* **determinism** — the same seed must produce a bit-identical report
  on a rerun, for every policy (the engine's ``(time, seq)`` event
  ordering makes this hold; this check keeps it held);
* **audit transparency** — attaching a :class:`SimulationAuditor` must
  not perturb the report (the engine hook is pure observation);
* **telemetry transparency** — attaching a
  :class:`~repro.obs.telemetry.Telemetry` recorder must not perturb the
  report either (same pure-observation contract, second consumer);
* **serial/parallel equivalence** — the experiment grid's
  process-pool fan-out (``--jobs``) must return cell results
  bit-identical to the in-process loop;
* **streamed-replay equivalence** — ``run_policy`` over a workload
  loaded with ``stream=True`` (training log a lazy ``CLFSource``,
  evaluation trace a lazy
  :class:`~repro.logs.replay.SidecarRequestSource` pulled through the
  arrival pump) must produce a report field-for-field identical to the
  fully materialized run, on every preset.  Any divergence means
  constant-memory replays no longer measure the same system the
  figures do.

The mined models have one implementation, the one-pass fold, so there
is nothing to compare them with here; the committed report oracle
(``tests/report_oracle.json``) pins their fingerprints instead.

Run the whole battery with :func:`run_differential_suite` (CLI:
``python -m repro differential``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.config import SimulationParams
    from ..experiments.common import ExperimentScale
    from ..logs.workloads import Workload
    from .cluster import SimulationResult

__all__ = [
    "DEFAULT_POLICIES",
    "DifferentialCheck",
    "DifferentialReport",
    "report_fields",
    "check_degenerate_prord",
    "check_determinism",
    "check_audit_transparency",
    "check_telemetry_transparency",
    "check_grid_parallel",
    "check_streamed_replay",
    "run_differential_suite",
]

#: The paper's four comparison policies (Figs. 6-8).
DEFAULT_POLICIES = ("wrr", "lard", "ext-lard-phttp", "prord")


@dataclass(frozen=True, slots=True)
class DifferentialCheck:
    """Outcome of one cross-run check."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, slots=True)
class DifferentialReport:
    """The whole battery's outcome."""

    checks: tuple[DifferentialCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = ["differential harness:"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


# -- comparison plumbing ------------------------------------------------------


def report_fields(result: "SimulationResult") -> dict:
    """A result's report as a flat dict (field-for-field comparisons)."""
    return dataclasses.asdict(result.report)


def _mismatches(a: dict, b: dict) -> list[str]:
    return [k for k in a if a[k] != b[k]]


def _compare(name: str, a: dict, b: dict, context: str) -> DifferentialCheck:
    bad = _mismatches(a, b)
    if bad:
        samples = ", ".join(
            f"{k}: {a[k]!r} != {b[k]!r}" for k in bad[:3]
        )
        return DifferentialCheck(
            name, False, f"{context}: {len(bad)} field(s) differ ({samples})"
        )
    return DifferentialCheck(
        name, True, f"{context}: all {len(a)} fields identical"
    )


def _base_params(workload: "Workload",
                 scale: "ExperimentScale",
                 params: "SimulationParams | None") -> "SimulationParams":
    from ..core.config import SimulationParams
    from ..core.system import cache_bytes_for_fraction
    params = params or SimulationParams(n_backends=scale.n_backends)
    return params.with_overrides(
        cache_bytes=cache_bytes_for_fraction(
            workload, scale.cache_fraction, params.n_backends
        )
    )


# -- individual checks --------------------------------------------------------


def check_degenerate_prord(
    workload: "Workload",
    scale: "ExperimentScale",
    params: "SimulationParams | None" = None,
) -> DifferentialCheck:
    """Degraded PRORD (all features off) must equal LARD field-for-field."""
    from ..policies.lard import LARDPolicy
    from ..policies.prord import (
        PRORDComponents,
        PRORDFeatures,
        PRORDPolicy,
    )
    from .cluster import ClusterSimulator

    params = _base_params(workload, scale, params)

    def run(policy) -> "SimulationResult":
        cluster = ClusterSimulator(
            workload.trace, policy, params,
            warmup_fraction=scale.warmup_fraction,
            window_s=scale.duration_s,
        )
        return cluster.run()

    lard = run(LARDPolicy())
    degraded_policy = PRORDPolicy(
        PRORDComponents.empty(),
        features=PRORDFeatures.lard_equivalent(),
        name="prord-degraded",
    )
    # LARD's HTTP/1.0-style connection semantics, on the instance.
    degraded_policy.persistent_connections = False
    degraded = run(degraded_policy)

    a = report_fields(lard)
    a["dispatcher_lookups"] = lard.dispatcher_lookups
    a["frontend_utilization"] = lard.frontend_utilization
    a["server_utilizations"] = lard.server_utilizations
    b = report_fields(degraded)
    b["dispatcher_lookups"] = degraded.dispatcher_lookups
    b["frontend_utilization"] = degraded.frontend_utilization
    b["server_utilizations"] = degraded.server_utilizations
    return _compare(
        "degenerate-prord", a, b,
        f"degraded PRORD vs LARD on {workload.name}",
    )


def check_determinism(
    workload: "Workload",
    scale: "ExperimentScale",
    policy_name: str,
    params: "SimulationParams | None" = None,
) -> DifferentialCheck:
    """The same seed twice must produce a bit-identical report."""
    from ..core.system import run_policy

    params = _base_params(workload, scale, params)

    def run() -> "SimulationResult":
        return run_policy(
            workload, policy_name, params,
            cache_fraction=None,
            warmup_fraction=scale.warmup_fraction,
            window_s=scale.duration_s,
        )

    return _compare(
        f"determinism[{policy_name}]",
        report_fields(run()), report_fields(run()),
        f"{policy_name} rerun on {workload.name}",
    )


def check_audit_transparency(
    workload: "Workload",
    scale: "ExperimentScale",
    policy_name: str,
    params: "SimulationParams | None" = None,
) -> DifferentialCheck:
    """Auditing must not perturb the run, and must report it clean."""
    from ..core.system import run_policy

    params = _base_params(workload, scale, params)

    def run(audit: bool) -> "SimulationResult":
        return run_policy(
            workload, policy_name, params,
            cache_fraction=None,
            warmup_fraction=scale.warmup_fraction,
            window_s=scale.duration_s,
            audit=audit,
        )

    plain = run(audit=False)
    audited = run(audit=True)
    name = f"audit-transparency[{policy_name}]"
    if audited.audit is None or not audited.audit.clean:
        return DifferentialCheck(
            name, False,
            f"audited run not clean: {audited.audit}",
        )
    check = _compare(
        name, report_fields(plain), report_fields(audited),
        f"{policy_name} audit-off vs audit-on on {workload.name}",
    )
    if not check.passed:
        return check
    return DifferentialCheck(
        name, True,
        f"{check.detail}; {audited.audit.checks_run} sweeps, "
        f"0 violations",
    )


def check_telemetry_transparency(
    workload: "Workload",
    scale: "ExperimentScale",
    policy_name: str,
    params: "SimulationParams | None" = None,
) -> DifferentialCheck:
    """Telemetry must not perturb the run (same contract as the audit)."""
    from ..core.system import run_policy

    params = _base_params(workload, scale, params)

    def run(telemetry: bool) -> "SimulationResult":
        return run_policy(
            workload, policy_name, params,
            cache_fraction=None,
            warmup_fraction=scale.warmup_fraction,
            window_s=scale.duration_s,
            telemetry=telemetry,
        )

    plain = run(telemetry=False)
    telemetered = run(telemetry=True)
    name = f"telemetry-transparency[{policy_name}]"
    summary = telemetered.telemetry
    if summary is None:
        return DifferentialCheck(
            name, False, "telemetered run carries no TelemetrySummary"
        )
    check = _compare(
        name, report_fields(plain), report_fields(telemetered),
        f"{policy_name} telemetry-off vs telemetry-on on {workload.name}",
    )
    if not check.passed:
        return check
    if summary.completions != telemetered.report.all_completed:
        return DifferentialCheck(
            name, False,
            f"telemetry counted {summary.completions} completions, "
            f"report has {telemetered.report.all_completed}",
        )
    return DifferentialCheck(
        name, True,
        f"{check.detail}; {len(summary.timeline)} windows, "
        f"{summary.completions} completions observed",
    )


def check_grid_parallel(
    workload: "Workload",
    scale: "ExperimentScale",
    policies: Sequence[str] = DEFAULT_POLICIES,
    params: "SimulationParams | None" = None,
    *,
    jobs: int = 2,
) -> DifferentialCheck:
    """The grid's ``--jobs`` pool must match the serial loop bit-for-bit."""
    from ..experiments.runner import Cell, run_grid

    cells = [Cell(workload=workload.name, policy=p) for p in policies]
    kwargs = dict(params=params, workloads={workload.name: workload})
    serial = run_grid(cells, scale, jobs=0, **kwargs)
    pooled = run_grid(cells, scale, jobs=jobs, **kwargs)
    name = f"grid-parallel[jobs={jobs}]"
    for s, p in zip(serial, pooled):
        bad = _mismatches(report_fields(s.result), report_fields(p.result))
        if bad:
            return DifferentialCheck(
                name, False,
                f"{s.cell.policy}: {len(bad)} field(s) differ "
                f"serial vs jobs={jobs}",
            )
    return DifferentialCheck(
        name, True,
        f"{len(cells)} cells identical across serial and jobs={jobs}",
    )


#: Preset scales for the streamed-replay check: small enough to run in
#: CI, large enough to exercise thousands of requests per preset.
_REPLAY_PRESET_SCALES = {
    "synthetic": 0.02,
    "cs-department": 0.05,
    "worldcup": 0.01,
}


def check_streamed_replay(
    params: "SimulationParams | None" = None,
    *,
    policy_name: str = "prord",
    preset_scales: dict[str, float] | None = None,
) -> DifferentialCheck:
    """Streamed ``run_policy`` must equal the materialized run exactly.

    For every preset: save the workload, load it back twice — once
    materialized, once with ``stream=True`` (lazy training log + lazy
    sidecar-streamed evaluation trace) — run the policy over both, and
    require the two reports field-for-field identical.  The streamed
    run carries the strict auditor (reports are audit-transparent), so
    the simulator's invariants are checked over a lazy source too; a
    violation raises :class:`~repro.sim.audit.AuditError`.
    """
    import tempfile
    from pathlib import Path

    from ..core.system import run_policy
    from ..logs.store import load_workload, save_workload
    from ..logs.workloads import make_workload

    name = "streamed-replay"
    preset_scales = preset_scales or _REPLAY_PRESET_SCALES
    total_requests = 0
    with tempfile.TemporaryDirectory() as tmp:
        for preset, scale in preset_scales.items():
            out = Path(tmp) / preset
            save_workload(make_workload(preset, scale=scale), out)
            batch = load_workload(out)
            streamed = load_workload(out, stream=True)
            a = run_policy(batch, policy_name, params)
            b = run_policy(streamed, policy_name, params, audit=True)
            check = _compare(
                name, report_fields(a), report_fields(b),
                f"{policy_name} materialized vs streamed on {preset}",
            )
            if not check.passed:
                return check
            total_requests += len(batch.trace)
    return DifferentialCheck(
        name, True,
        f"{policy_name} materialized == streamed (audited) on "
        f"{'/'.join(preset_scales)} ({total_requests} requests total)",
    )


# -- the battery --------------------------------------------------------------


def run_differential_suite(
    scale: "ExperimentScale | None" = None,
    *,
    workload_name: str = "synthetic",
    policies: Sequence[str] = DEFAULT_POLICIES,
    params: "SimulationParams | None" = None,
    jobs: int = 2,
) -> DifferentialReport:
    """Run the whole differential battery over one workload.

    Degenerate equivalence, streamed-vs-materialized replay equivalence
    (all presets), per-policy determinism, audit and telemetry
    transparency, and (``jobs >= 2``) serial-vs-pool grid equivalence.
    """
    from ..experiments.common import QUICK, loaded_workload

    scale = scale or QUICK
    workload = loaded_workload(workload_name, scale)
    checks: list[DifferentialCheck] = [
        check_degenerate_prord(workload, scale, params),
        check_streamed_replay(params),
    ]
    for policy_name in policies:
        checks.append(
            check_determinism(workload, scale, policy_name, params)
        )
        checks.append(
            check_audit_transparency(workload, scale, policy_name, params)
        )
        checks.append(
            check_telemetry_transparency(workload, scale, policy_name,
                                         params)
        )
    if jobs >= 2:
        checks.append(
            check_grid_parallel(workload, scale, policies, params,
                                jobs=jobs)
        )
    return DifferentialReport(checks=tuple(checks))

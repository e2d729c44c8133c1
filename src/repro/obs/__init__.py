"""Observability layer: timelines, histograms, profiling, manifests.

``repro.obs`` watches a simulation without steering it.  Every collector
here rides the engine's pure-observation ``on_event`` hook (the same
attachment point as :mod:`repro.sim.audit`, and the two chain), so a
telemetered run produces a bit-identical
:class:`~repro.sim.stats.SimulationReport` to a bare one — the
differential harness enforces this.

Entry points:

* :class:`Telemetry` — per-run umbrella (timeline + histograms +
  phases); pass ``telemetry=True`` to
  :func:`~repro.core.system.run_policy` or ``--telemetry`` to the CLIs.
* :func:`merge_telemetry` — fold per-run summaries across a grid.
* :func:`build_manifest` / :class:`RunManifest` — provenance records
  with deterministic fingerprints.
* :mod:`~repro.obs.export` / :mod:`~repro.obs.dashboard` — timeline
  JSONL (and its reader), and terminal sparkline dashboards.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
    from .dashboard import render_dashboard
    from .export import timeline_jsonl, windows_from_jsonl
    from .histogram import StreamingHistogram
    from .manifest import (
        MANIFEST_SCHEMA,
        RunManifest,
        build_manifest,
        workload_identity,
    )
    from .profiler import PhaseProfiler, PhaseTiming
    from .telemetry import (
        DEFAULT_WINDOWS_PER_RUN,
        MergedTelemetry,
        Telemetry,
        TelemetrySummary,
        merge_telemetry,
    )
    from .timeline import (
        ServerWindow,
        Timeline,
        TimelineRecorder,
        TimelineWindow,
    )

_EXPORTS = {
    "dashboard": ("render_dashboard",),
    "export": ("timeline_jsonl", "windows_from_jsonl"),
    "histogram": ("StreamingHistogram",),
    "manifest": ("MANIFEST_SCHEMA", "RunManifest", "build_manifest",
                 "workload_identity"),
    "profiler": ("PhaseProfiler", "PhaseTiming"),
    "telemetry": ("DEFAULT_WINDOWS_PER_RUN", "MergedTelemetry", "Telemetry",
                  "TelemetrySummary", "merge_telemetry"),
    "timeline": ("ServerWindow", "Timeline", "TimelineRecorder",
                 "TimelineWindow"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

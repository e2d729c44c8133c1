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

__all__ = [
    "DEFAULT_WINDOWS_PER_RUN",
    "MANIFEST_SCHEMA",
    "MergedTelemetry",
    "PhaseProfiler",
    "PhaseTiming",
    "RunManifest",
    "ServerWindow",
    "StreamingHistogram",
    "Telemetry",
    "TelemetrySummary",
    "Timeline",
    "TimelineRecorder",
    "TimelineWindow",
    "build_manifest",
    "merge_telemetry",
    "render_dashboard",
    "timeline_jsonl",
    "windows_from_jsonl",
    "workload_identity",
]

"""The run-level telemetry umbrella: timeline + histograms + phases.

:class:`Telemetry` is the single object a driver attaches to a
:class:`~repro.sim.cluster.ClusterSimulator` run (``telemetry=True`` on
:func:`~repro.core.system.run_policy`, ``--telemetry`` on the grid CLI).
It bundles:

* a :class:`~repro.obs.timeline.TimelineRecorder` sampling per-backend
  utilization / queue depth / cache state and routing-path counters;
* two :class:`~repro.obs.histogram.StreamingHistogram`\\ s — observed
  **response time** (sojourn) and modeled **service demand** (the cost
  the request would pay with zero queueing: backend CPU + transfer,
  plus the disk read on a miss) — whose gap is pure queueing delay.
  Both are folded once, at :meth:`Telemetry.finalize`, from the
  completion columns the run's
  :class:`~repro.sim.stats.MetricsCollector` keeps anyway, so the
  simulation's per-completion path carries no telemetry call;
* a :class:`~repro.obs.profiler.PhaseProfiler` for mining / replication
  / event-loop wall-clock.

Attachment is pure observation, layered on the engine's ``on_event``
hook exactly like the simulation auditor (both join through
``Simulator.observe``, in either order), so a telemetered run's
:class:`~repro.sim.stats.SimulationReport` is bit-identical to a bare
run — the differential harness checks this.

:meth:`Telemetry.finalize` freezes everything into a picklable
:class:`TelemetrySummary` that rides on
:class:`~repro.sim.cluster.SimulationResult` through the experiment
grid's process pool; :func:`merge_telemetry` folds many runs' summaries
into one :class:`MergedTelemetry` (bucket-wise histogram merge, phase
accumulation).  Wall-clock phase timings are non-deterministic by
nature, so both summary types expose :meth:`deterministic_dict` — the
view the serial-vs-parallel equality tests compare.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING, Iterable, Sequence

from .histogram import StreamingHistogram
from .profiler import PhaseProfiler, PhaseTiming
from .timeline import Timeline, TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sim.cluster import ClusterSimulator

__all__ = [
    "Telemetry",
    "TelemetrySummary",
    "MergedTelemetry",
    "merge_telemetry",
]

#: Default number of windows a run is divided into (before coalescing).
DEFAULT_WINDOWS_PER_RUN = 60
#: Timeline coalescing bound.
MAX_WINDOWS = 240
#: Histogram bucketing: a 1 µs floor and 5% buckets.
HIST_MIN_S = 1e-6
HIST_GROWTH = 1.05


@dataclass(frozen=True, slots=True)
class TelemetrySummary:
    """Everything one telemetered run produced (picklable)."""

    timeline: Timeline
    response_hist: StreamingHistogram
    service_hist: StreamingHistogram
    phases: tuple[tuple[str, PhaseTiming], ...]
    events_processed: int
    completions: int

    @property
    def p50_response_s(self) -> float:
        return self.response_hist.percentile(50)

    @property
    def p95_response_s(self) -> float:
        return self.response_hist.percentile(95)

    @property
    def p99_response_s(self) -> float:
        return self.response_hist.percentile(99)

    def phase_timings(self) -> dict[str, PhaseTiming]:
        return dict(self.phases)

    def deterministic_dict(self) -> dict:
        """Reproducible view: everything except wall-clock seconds.

        Same seed + same config must yield an identical value, whether
        the run executed serially or inside a ``--jobs`` worker — this
        is the object the merge-equality tests compare.
        """
        return {
            "timeline": [dataclasses.asdict(w)
                         for w in self.timeline.windows],
            "window_s": self.timeline.window_s,
            "coalesce_rounds": self.timeline.coalesce_rounds,
            "response_hist": self.response_hist.to_dict(),
            "service_hist": self.service_hist.to_dict(),
            "phases": {name: {"calls": t.calls, "units": t.units}
                       for name, t in self.phases},
            "events_processed": self.events_processed,
            "completions": self.completions,
        }


@dataclass(frozen=True, slots=True)
class MergedTelemetry:
    """Telemetry folded over many runs (a grid's worth)."""

    n_runs: int
    response_hist: StreamingHistogram
    service_hist: StreamingHistogram
    phases: tuple[tuple[str, PhaseTiming], ...]
    events_processed: int
    completions: int

    @property
    def p50_response_s(self) -> float:
        return self.response_hist.percentile(50)

    @property
    def p95_response_s(self) -> float:
        return self.response_hist.percentile(95)

    @property
    def p99_response_s(self) -> float:
        return self.response_hist.percentile(99)

    def phase_timings(self) -> dict[str, PhaseTiming]:
        return dict(self.phases)

    def deterministic_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "response_hist": self.response_hist.to_dict(),
            "service_hist": self.service_hist.to_dict(),
            "phases": {name: {"calls": t.calls, "units": t.units}
                       for name, t in self.phases},
            "events_processed": self.events_processed,
            "completions": self.completions,
        }


def merge_telemetry(
    summaries: Iterable[TelemetrySummary | None],
) -> MergedTelemetry:
    """Fold per-run summaries into one grid-level view.

    ``None`` entries (cells that ran without telemetry) are skipped.
    Histograms merge bucket-wise; phases accumulate by name.
    """
    present: Sequence[TelemetrySummary] = [
        s for s in summaries if s is not None
    ]
    if not present:
        raise ValueError("no telemetry summaries to merge")
    first = present[0]
    response = first.response_hist.copy()
    service = first.service_hist.copy()
    for s in present[1:]:
        response.merge(s.response_hist)
        service.merge(s.service_hist)
    return MergedTelemetry(
        n_runs=len(present),
        response_hist=response,
        service_hist=service,
        phases=PhaseProfiler.merge_items(*(s.phases for s in present)),
        events_processed=sum(s.events_processed for s in present),
        completions=sum(s.completions for s in present),
    )


class Telemetry:
    """Per-run telemetry recorder (attach once, finalize once).

    The timeline's window is one sixtieth of the run's measurement
    window, fixed at attach time (a pure function of the run's
    configuration, so serial and pooled runs agree).
    """

    def __init__(self) -> None:
        self.response_hist = StreamingHistogram(
            min_value=HIST_MIN_S, growth=HIST_GROWTH)
        self.service_hist = StreamingHistogram(
            min_value=HIST_MIN_S, growth=HIST_GROWTH)
        self.profiler = PhaseProfiler()
        self.recorder: TimelineRecorder | None = None
        self.cluster: "ClusterSimulator | None" = None

    # -- wiring ------------------------------------------------------------

    def attach(self, cluster: "ClusterSimulator") -> None:
        """Bind to a cluster run (done by the cluster's constructor)."""
        if self.cluster is not None:
            raise RuntimeError("a Telemetry instance attaches to one run")
        self.cluster = cluster
        window = max(cluster.window_s, 1e-9) / DEFAULT_WINDOWS_PER_RUN
        self.recorder = TimelineRecorder(window, max_windows=MAX_WINDOWS)
        self.recorder.attach(cluster)

    # -- finish ------------------------------------------------------------

    def finalize(self) -> TelemetrySummary:
        """Freeze the run's telemetry (call after the calendar drains).

        Folds every completion into the two histograms, in completion
        order: the same values, in the same order, that one ``add`` per
        completion during the run would have recorded.
        """
        cluster = self.cluster
        if cluster is None or self.recorder is None:
            raise RuntimeError("telemetry is not attached to a cluster")
        # Private-state access is deliberate: these are the collector's
        # own completion columns, read once after the run.
        metrics = cluster.metrics
        self.response_hist.extend(
            map(sub, metrics._completion, metrics._arrival))
        # Service demand per completion: priced once per distinct size.
        # Deferred import: at module level, importing ``repro.obs`` would
        # load the whole simulator package.
        from ..sim.soa import service_time_arrays
        params = cluster.params
        sizes = list(dict.fromkeys(metrics._size))
        tx, disk = service_time_arrays(
            sizes, params.transmit_us_per_kb,
            params.disk_latency_fixed_ms, params.disk_us_per_kb)
        cpu = params.backend_cpu_s
        on_hit = {size: cpu + t for size, t in zip(sizes, tx)}
        on_miss = {size: cpu + t + d for size, t, d in zip(sizes, tx, disk)}
        generated = cpu + params.dynamic_cpu_s
        self.service_hist.extend([
            generated if dynamic else (on_hit if hit else on_miss)[size]
            for dynamic, hit, size in zip(
                metrics._dynamic, metrics._hit, metrics._size)
        ])
        return TelemetrySummary(
            timeline=self.recorder.finalize(),
            response_hist=self.response_hist,
            service_hist=self.service_hist,
            phases=self.profiler.items(),
            events_processed=cluster.sim.events_processed,
            completions=metrics.completed,
        )

"""Wall-clock phase profiling: where does real time go?

The pipeline has three very different cost centres — offline mining
(dependency graph, bundles, popularity), periodic replication rounds,
and the event loop itself — but until now only the per-cell total was
measured.  :class:`PhaseProfiler` accumulates named phases (wall-clock
seconds, call counts, and an optional progress counter such as engine
events, yielding events/sec for the simulation phase) and merges across
runs and worker processes.

Wall-clock is inherently non-deterministic, so everything downstream
keeps phase timings out of determinism comparisons: a
:class:`PhaseTiming`'s ``calls`` and ``units`` are reproducible, its
``wall_s`` is not.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

__all__ = ["PhaseTiming", "PhaseProfiler"]


@dataclass(frozen=True, slots=True)
class PhaseTiming:
    """Accumulated cost of one named phase (picklable)."""

    wall_s: float
    calls: int
    #: phase-specific progress counter (engine events for the simulate
    #: phase, replicas pushed for replication rounds, 0 when unused)
    units: int = 0

    @property
    def units_per_s(self) -> float:
        return self.units / self.wall_s if self.wall_s > 0 else 0.0

    def combined(self, other: "PhaseTiming") -> "PhaseTiming":
        return PhaseTiming(
            wall_s=self.wall_s + other.wall_s,
            calls=self.calls + other.calls,
            units=self.units + other.units,
        )


class PhaseProfiler:
    """Accumulates named wall-clock phases.

    Use as a context manager factory::

        profiler = PhaseProfiler()
        with profiler.phase("mine.stream"):
            fold.add_records(records)
        profiler.add_units("simulate", cluster.sim.events_processed)
    """

    def __init__(self) -> None:
        self._phases: dict[str, PhaseTiming] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block under ``name`` (re-entrant; costs accumulate)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def record(self, name: str, wall_s: float, units: int = 0) -> None:
        """Accumulate one observation of phase ``name``."""
        if wall_s < 0:
            raise ValueError(f"negative wall time: {wall_s}")
        prev = self._phases.get(name)
        timing = PhaseTiming(wall_s=wall_s, calls=1, units=units)
        self._phases[name] = prev.combined(timing) if prev else timing

    def add_units(self, name: str, units: int) -> None:
        """Add progress units to an already-recorded phase."""
        prev = self._phases.get(name)
        if prev is None:
            self._phases[name] = PhaseTiming(wall_s=0.0, calls=0,
                                             units=units)
        else:
            self._phases[name] = PhaseTiming(
                wall_s=prev.wall_s, calls=prev.calls,
                units=prev.units + units,
            )

    # -- views -------------------------------------------------------------

    def timings(self) -> dict[str, PhaseTiming]:
        return dict(self._phases)

    def items(self) -> tuple[tuple[str, PhaseTiming], ...]:
        """Phases as sorted items (stable, picklable snapshot)."""
        return tuple(sorted(self._phases.items()))

    def total_wall_s(self) -> float:
        return sum(t.wall_s for t in self._phases.values())

    def __len__(self) -> int:
        return len(self._phases)

    def __contains__(self, name: str) -> bool:
        return name in self._phases

    # -- combination -------------------------------------------------------

    @staticmethod
    def merge_items(
        *phase_items: Mapping[str, PhaseTiming] | tuple[tuple[str, PhaseTiming], ...],
    ) -> tuple[tuple[str, PhaseTiming], ...]:
        """Fold several phase maps/item-tuples into one sorted tuple."""
        merged: dict[str, PhaseTiming] = {}
        for items in phase_items:
            pairs = items.items() if isinstance(items, Mapping) else items
            for name, timing in pairs:
                prev = merged.get(name)
                merged[name] = prev.combined(timing) if prev else timing
        return tuple(sorted(merged.items()))

    def format(self) -> str:
        """Human-readable phase table."""
        if not self._phases:
            return "(no phases recorded)"
        width = max(len(name) for name in self._phases)
        lines = []
        for name, t in sorted(self._phases.items(),
                              key=lambda kv: -kv[1].wall_s):
            rate = (f"  {t.units_per_s:12.0f} units/s" if t.units else "")
            lines.append(
                f"{name:<{width}s}  {t.wall_s * 1e3:10.2f} ms  "
                f"x{t.calls:<5d}{rate}"
            )
        return "\n".join(lines)

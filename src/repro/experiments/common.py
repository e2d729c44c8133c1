"""Shared harness for the paper's experiments (Figs. 6–9).

Every experiment follows the same recipe:

1. generate a workload preset under a *sustained* offered load
   (``session_rate`` sessions/s for ``duration_s`` seconds — the
   concurrency-driven equivalent of the paper's saturating traces);
2. mine the training log;
3. run each policy over the identical evaluation trace;
4. print paper-style rows and return the structured results.

Two scales are provided: ``full`` (paper-scale, minutes) and ``quick``
(seconds — used by the benchmark suite and CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..logs.workloads import Workload, make_workload
from ..sim.cluster import SimulationResult

__all__ = [
    "ExperimentScale",
    "QUICK",
    "FULL",
    "BASE_SEEDS",
    "loaded_workload",
    "format_table",
    "gain",
]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    ``session_rate`` values are per workload (each preset has a
    different per-session request count, so the rate that saturates an
    8-backend cluster differs).
    """

    name: str
    duration_s: float
    session_rates: Mapping[str, float]
    n_backends: int = 8
    cache_fraction: float = 0.3
    warmup_fraction: float = 0.15
    #: Optional session-shape overrides: short windows need short
    #: sessions to reach steady state (None keeps the preset's shape).
    think_time_mean: float | None = None
    max_session_pages: int | None = None

    def rate_for(self, workload_name: str) -> float:
        try:
            return self.session_rates[workload_name]
        except KeyError:
            raise KeyError(
                f"scale {self.name!r} has no rate for {workload_name!r}"
            ) from None


#: Bench/CI scale: a few seconds per policy run.  Rates are chosen to
#: saturate the weakest policy on an 8-backend cluster (the regime the
#: paper's throughput bars measure) while staying small enough for CI.
QUICK = ExperimentScale(
    name="quick",
    duration_s=6.0,
    session_rates={
        "synthetic": 420.0,
        "cs-department": 380.0,
        "worldcup": 320.0,
    },
)

#: Paper scale: saturating load sustained long enough for replication
#: rounds and steady-state hit rates.  Rates sit just past the weakest
#: policy's saturation knee — the paper's operating point; raising them
#: further pushes into deep overload where the PRORD/LARD gap grows
#: beyond the paper's 10–45% band (capacity ratios take over).
FULL = ExperimentScale(
    name="full",
    duration_s=15.0,
    session_rates={
        "synthetic": 430.0,
        "cs-department": 390.0,
        "worldcup": 330.0,
    },
)


#: Preset base seeds (matching the workload factories' defaults).
BASE_SEEDS = {"synthetic": 303, "cs-department": 101, "worldcup": 202}


def loaded_workload(
    name: str,
    scale: ExperimentScale,
    *,
    seed_offset: int | None = None,
) -> Workload:
    """Build a preset workload under the scale's sustained load.

    ``seed_offset`` shifts the preset's base seed; ``None`` (the
    default) keeps the factory's own seed, while ``0`` explicitly
    requests the base seed — the two are distinct so callers can pin
    the base seed on purpose (a truthiness check used to conflate
    them).
    """
    kwargs = dict(
        session_rate=scale.rate_for(name),
        duration_s=scale.duration_s,
        think_time_mean=scale.think_time_mean,
        max_session_pages=scale.max_session_pages,
    )
    if seed_offset is not None:
        kwargs["seed"] = BASE_SEEDS[name] + seed_offset
    return make_workload(name, **kwargs)


def gain(results: Mapping[str, SimulationResult],
         winner: str, baseline: str) -> float:
    """Relative throughput gain of ``winner`` over ``baseline``."""
    base = results[baseline].throughput_rps
    if base <= 0:
        return 0.0
    return results[winner].throughput_rps / base - 1.0


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Fixed-width table like the paper's figure data, as a string."""
    widths = [
        max(len(str(col)), *(len(str(r[i])) for r in rows)) if rows
        else len(str(col))
        for i, col in enumerate(columns)
    ]
    def fmt(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    sep = "-" * len(fmt(columns))
    lines = [title, sep, fmt(columns), sep]
    lines += [fmt(r) for r in rows]
    lines.append(sep)
    return "\n".join(lines)

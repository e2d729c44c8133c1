"""Fig. 8 — Throughput vs. amount of site data fitting in memory.

The paper varies "the amount of website's data that can be accommodated
in the backend servers' memory" and shows PRORD preserving locality
better than LARD as memory shrinks — the regime of "large websites with
immensely huge datasets, where caching considerable website contents
becomes impossible".

Shape targets:
* both curves increase with the memory fraction,
* PRORD ≥ LARD everywhere, with the gap widest at small fractions,
* the curves converge as memory → 100%.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import QUICK, ExperimentScale, format_table
from .runner import Cell, run_grid

__all__ = ["Fig8Row", "run_fig8", "main"]

POLICIES = ("lard", "prord")
DEFAULT_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)


@dataclass(frozen=True, slots=True)
class Fig8Row:
    memory_fraction: float
    policy: str
    throughput_rps: float
    hit_rate: float


def run_fig8(
    scale: ExperimentScale = QUICK,
    *,
    workload_name: str = "cs-department",
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    jobs: int = 0,
    audit: bool = False,
    model_cache=None,
) -> list[Fig8Row]:
    """Regenerate the Fig. 8 series (memory sweep).

    One workload and one mining pass feed the whole
    (fraction × policy) grid — the cache fraction only resizes the
    simulated caches, not the mined models.
    """
    cells = [
        Cell(workload=workload_name, policy=p, cache_fraction=f)
        for f in fractions for p in POLICIES
    ]
    return [
        Fig8Row(
            memory_fraction=cr.cache_fraction,
            policy=cr.cell.policy,
            throughput_rps=cr.result.throughput_rps,
            hit_rate=cr.result.hit_rate,
        )
        for cr in run_grid(cells, scale, jobs=jobs, audit=audit,
                           model_cache=model_cache)
    ]


def main(scale: ExperimentScale = QUICK, *, jobs: int = 0,
         audit: bool = False, model_cache=None) -> str:
    from .charts import sparkline
    rows = run_fig8(scale, jobs=jobs, audit=audit,
                    model_cache=model_cache)
    table = format_table(
        "Fig. 8 - Throughput varying data amount in memory (cs-department)",
        ["memory", "policy", "thr (rps)", "hit"],
        [[f"{r.memory_fraction:.0%}", r.policy,
          f"{r.throughput_rps:.0f}", f"{r.hit_rate:.1%}"] for r in rows],
    )
    print(table)
    for policy in POLICIES:
        series = [r.hit_rate for r in rows if r.policy == policy]
        line = f"{policy:>6s} hit-rate vs memory: {sparkline(series)}"
        print(line)
        table += "\n" + line
    return table


if __name__ == "__main__":
    raise SystemExit(
        "error: python -m repro.experiments.fig8 runs nothing; "
        "use `repro fig8`")

"""Fig. 9 — Throughput of the individual PRORD enhancements (CS trace).

The paper turns each enhancement on alone over the LARD core:

* ``LARD-bundle`` — embedded-object forwarding + bundle prefetch;
* ``LARD-distribution`` — Algorithm-3 popularity replication;
* ``LARD-prefetch-nav`` — dependency-graph navigation prefetching;
* ``PRORD`` — all of them combined.

Shape targets: every enhancement ≥ the LARD core alone, and PRORD (the
combination) the best — "the schemes are complementary among
themselves".
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import QUICK, ExperimentScale, format_table
from .runner import Cell, run_grid

__all__ = ["Fig9Row", "run_fig9", "main"]

#: The paper's bars, with ext-lard-phttp standing in for the "LARD"
#: core (the persistent-connection LARD the enhancements build on).
POLICIES = (
    "ext-lard-phttp",
    "lard-bundle",
    "lard-distribution",
    "lard-prefetch-nav",
    "prord",
)


@dataclass(frozen=True, slots=True)
class Fig9Row:
    policy: str
    throughput_rps: float
    mean_response_ms: float
    hit_rate: float
    prefetches: int


def run_fig9(
    scale: ExperimentScale = QUICK,
    *,
    workload_name: str = "cs-department",
    jobs: int = 0,
    audit: bool = False,
    model_cache=None,
) -> list[Fig9Row]:
    """Regenerate the Fig. 9 ablation series.

    All four mining configurations share one mining pass — each run
    still gets private per-run predictor state, so the ablation bars
    are unchanged from per-run mining.
    """
    cells = [Cell(workload=workload_name, policy=p) for p in POLICIES]
    return [
        Fig9Row(
            policy=cr.cell.policy,
            throughput_rps=cr.result.throughput_rps,
            mean_response_ms=cr.result.mean_response_s * 1e3,
            hit_rate=cr.result.hit_rate,
            prefetches=cr.result.report.prefetches_issued,
        )
        for cr in run_grid(cells, scale, jobs=jobs, audit=audit,
                           model_cache=model_cache)
    ]


def main(scale: ExperimentScale = QUICK, *, jobs: int = 0,
         audit: bool = False, model_cache=None) -> str:
    rows = run_fig9(scale, jobs=jobs, audit=audit,
                    model_cache=model_cache)
    table = format_table(
        "Fig. 9 - Throughput of Individual Enhancements (cs-department)",
        ["policy", "thr (rps)", "resp (ms)", "hit", "prefetches"],
        [[r.policy, f"{r.throughput_rps:.0f}", f"{r.mean_response_ms:.1f}",
          f"{r.hit_rate:.1%}", r.prefetches] for r in rows],
    )
    print(table)
    return table


if __name__ == "__main__":
    raise SystemExit(
        "error: python -m repro.experiments.fig9 runs nothing; "
        "use `repro fig9`")

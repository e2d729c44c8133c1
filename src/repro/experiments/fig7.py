"""Fig. 7 — Throughput comparison: WRR / LARD / Ext-LARD-PHTTP / PRORD.

The paper reports PRORD beating LARD by 10–45% across the three traces
(with ~30% of the site's data fitting in the cluster's memory), and
notes the results are consistent for 6–16 backends.

Shape targets:
* ordering PRORD > Ext-LARD-PHTTP ≥ LARD > WRR,
* PRORD/LARD gain roughly in the 10–45% band,
* ordering stable across backend counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import QUICK, ExperimentScale, format_table
from .runner import Cell, run_grid

__all__ = ["Fig7Row", "run_fig7", "run_fig7_backend_sweep", "main"]

WORKLOADS = ("cs-department", "worldcup", "synthetic")
POLICIES = ("wrr", "lard", "ext-lard-phttp", "prord")


@dataclass(frozen=True, slots=True)
class Fig7Row:
    workload: str
    policy: str
    throughput_rps: float
    mean_response_ms: float
    hit_rate: float


def run_fig7(
    scale: ExperimentScale = QUICK,
    workloads: tuple[str, ...] = WORKLOADS,
    *,
    jobs: int = 0,
    audit: bool = False,
    model_cache=None,
) -> list[Fig7Row]:
    """Regenerate the Fig. 7 series (per-trace policy throughput)."""
    cells = [Cell(workload=w, policy=p) for w in workloads for p in POLICIES]
    return [
        Fig7Row(
            workload=cr.cell.workload,
            policy=cr.cell.policy,
            throughput_rps=cr.result.throughput_rps,
            mean_response_ms=cr.result.mean_response_s * 1e3,
            hit_rate=cr.result.hit_rate,
        )
        for cr in run_grid(cells, scale, jobs=jobs, audit=audit,
                           model_cache=model_cache)
    ]


def run_fig7_backend_sweep(
    scale: ExperimentScale = QUICK,
    backend_counts: tuple[int, ...] = (6, 8, 12, 16),
    workload_name: str = "synthetic",
    *,
    jobs: int = 0,
    audit: bool = False,
    model_cache=None,
) -> dict[int, dict[str, float]]:
    """The paper's 6–16 backend consistency check (one workload)."""
    cells = [
        Cell(workload=workload_name, policy=p, n_backends=n)
        for n in backend_counts for p in POLICIES
    ]
    out: dict[int, dict[str, float]] = {}
    for cr in run_grid(cells, scale, jobs=jobs, audit=audit,
                       model_cache=model_cache):
        out.setdefault(cr.result.n_backends, {})[cr.cell.policy] = (
            cr.result.throughput_rps)
    return out


def main(scale: ExperimentScale = QUICK, *, jobs: int = 0,
         audit: bool = False, model_cache=None) -> str:
    from .charts import grouped_bar_chart
    rows = run_fig7(scale, jobs=jobs, audit=audit,
                    model_cache=model_cache)
    table = format_table(
        "Fig. 7 - Throughput Comparison "
        f"({scale.n_backends} backends, {scale.cache_fraction:.0%} of site "
        "in cluster memory)",
        ["trace", "policy", "thr (rps)", "resp (ms)", "hit"],
        [[r.workload, r.policy, f"{r.throughput_rps:.0f}",
          f"{r.mean_response_ms:.1f}", f"{r.hit_rate:.1%}"] for r in rows],
    )
    print(table)
    by_wl: dict[str, dict[str, Fig7Row]] = {}
    for r in rows:
        by_wl.setdefault(r.workload, {})[r.policy] = r
    chart = grouped_bar_chart(
        "throughput (rps)",
        {w: {p: rr.throughput_rps for p, rr in policies.items()}
         for w, policies in by_wl.items()},
    )
    print(chart)
    table += "\n" + chart
    for wname, policies in by_wl.items():
        g = policies["prord"].throughput_rps / max(
            policies["lard"].throughput_rps, 1e-9) - 1
        line = f"PRORD over LARD on {wname}: {g:+.1%}"
        print(line)
        table += "\n" + line
    return table


if __name__ == "__main__":
    raise SystemExit(
        "error: python -m repro.experiments.fig7 runs nothing; "
        "use `repro fig7`")

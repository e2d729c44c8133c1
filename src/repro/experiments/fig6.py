"""Fig. 6 — Frequency of dispatches, LARD vs PRORD, per trace.

The paper shows the dispatcher being contacted for (almost) every
request under LARD, and only for the residual main-page requests under
PRORD: embedded objects are forwarded and prefetched/distributed pages
are routed from the distributor's own tables.

Shape target: PRORD's dispatch count ≪ LARD's on every trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import QUICK, ExperimentScale, format_table
from .runner import Cell, run_grid

__all__ = ["Fig6Row", "run_fig6", "main"]

WORKLOADS = ("cs-department", "worldcup", "synthetic")
POLICIES = ("lard", "prord")


@dataclass(frozen=True, slots=True)
class Fig6Row:
    workload: str
    policy: str
    #: requests served over the whole run (the paper counts dispatches
    #: over the whole trace, so the denominator matches that window)
    requests: int
    dispatches: int

    @property
    def dispatch_frequency(self) -> float:
        return self.dispatches / self.requests if self.requests else 0.0


def run_fig6(
    scale: ExperimentScale = QUICK,
    workloads: tuple[str, ...] = WORKLOADS,
    *,
    jobs: int = 0,
    audit: bool = False,
    model_cache=None,
) -> list[Fig6Row]:
    """Regenerate the Fig. 6 series."""
    cells = [Cell(workload=w, policy=p) for w in workloads for p in POLICIES]
    return [
        Fig6Row(
            workload=cr.cell.workload,
            policy=cr.cell.policy,
            requests=cr.result.report.all_completed,
            dispatches=cr.result.report.dispatches,
        )
        for cr in run_grid(cells, scale, jobs=jobs, audit=audit,
                           model_cache=model_cache)
    ]


def main(scale: ExperimentScale = QUICK, *, jobs: int = 0,
         audit: bool = False, model_cache=None) -> str:
    rows = run_fig6(scale, jobs=jobs, audit=audit,
                    model_cache=model_cache)
    table = format_table(
        "Fig. 6 - Frequency of Dispatches",
        ["trace", "policy", "requests", "dispatches", "disp/req"],
        [[r.workload, r.policy, r.requests, r.dispatches,
          f"{r.dispatch_frequency:.3f}"] for r in rows],
    )
    print(table)
    return table


if __name__ == "__main__":
    raise SystemExit(
        "error: python -m repro.experiments.fig6 runs nothing; "
        "use `repro fig6`")

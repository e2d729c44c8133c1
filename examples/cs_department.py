#!/usr/bin/env python3
"""The paper's motivating scenario: a university department web site.

Reproduces the CS-department experiment end to end under a saturating
load: five user categories (current students, prospective students,
faculty, staff, other) navigate a 4,700-file site; PRORD's distributor
forwards embedded objects, prefetches along the dependency graph, and
replicates hot files.

Run:  python examples/cs_department.py
"""

from repro.core import SimulationParams, run_policy
from repro.experiments import QUICK, loaded_workload


def main() -> None:
    # A CS-department-like site under sustained load (see
    # repro.experiments.common for the load recipe).
    workload = loaded_workload("cs-department", QUICK)
    print(workload.summary())

    params = SimulationParams(n_backends=8)
    print()
    for policy in ("wrr", "lard", "ext-lard-phttp", "prord"):
        r = run_policy(
            workload, policy, params,
            cache_fraction=0.3,
            window_s=QUICK.duration_s,
        )
        print(f"{policy:>16s}: {r.throughput_rps:7.0f} rps, "
              f"resp {r.mean_response_s * 1e3:8.1f} ms, "
              f"hit {r.hit_rate:.1%}, "
              f"dispatches {r.report.dispatches}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Capacity planning: backend count and memory trade-offs.

A downstream operator's view of the library: given a site and its logs,

* how does each policy's throughput scale from 6 to 16 backends
  (the paper's consistency claim)?
* how much memory does the cluster need before LARD and PRORD converge
  (Fig. 8's question)?
* how much closed-loop load does each policy sustain?

Run:  python examples/capacity_planning.py
"""

from repro.core import SimulationParams, run_policy
from repro.experiments import QUICK, loaded_workload


def backend_scaling() -> None:
    print("=== throughput vs backend count (synthetic, 30% memory) ===")
    workload = loaded_workload("synthetic", QUICK)
    print(f"{'backends':>9s} {'lard':>8s} {'prord':>8s} {'gain':>7s}")
    for n in (6, 8, 12, 16):
        params = SimulationParams(n_backends=n)
        lard = run_policy(workload, "lard", params, cache_fraction=0.3,
                          window_s=QUICK.duration_s)
        prord = run_policy(workload, "prord", params, cache_fraction=0.3,
                           window_s=QUICK.duration_s)
        gain = prord.throughput_rps / max(lard.throughput_rps, 1e-9) - 1
        print(f"{n:9d} {lard.throughput_rps:8.0f} "
              f"{prord.throughput_rps:8.0f} {gain:+7.1%}")


def memory_sizing() -> None:
    print("\n=== hit rate vs cluster memory (cs-department) ===")
    workload = loaded_workload("cs-department", QUICK)
    params = SimulationParams(n_backends=8)
    print(f"{'memory':>7s} {'lard hit':>9s} {'prord hit':>10s}")
    for fraction in (0.05, 0.1, 0.3, 0.6):
        lard = run_policy(workload, "lard", params,
                          cache_fraction=fraction,
                          window_s=QUICK.duration_s)
        prord = run_policy(workload, "prord", params,
                           cache_fraction=fraction,
                           window_s=QUICK.duration_s)
        print(f"{fraction:7.0%} {lard.hit_rate:9.1%} {prord.hit_rate:10.1%}")


def closed_loop_capacity() -> None:
    print("\n=== closed-loop capacity (synthetic, 30% memory) ===")
    from repro.logs import TrafficSpec, synthetic_workload
    from repro.sim import run_closed_loop
    from repro.core import build_policy, mine_components

    workload = synthetic_workload(scale=0.02)
    params = SimulationParams(
        n_backends=8,
        cache_bytes=int(0.3 * workload.site_bytes / 8),
    )
    spec = TrafficSpec(think_time_mean=0.25, mean_session_pages=5,
                       max_session_pages=10)
    print(f"{'sessions':>9s} {'lard':>8s} {'prord':>8s}")
    for concurrency in (100, 400, 1200):
        row = [concurrency]
        for name in ("lard", "prord"):
            mining = (mine_components(workload, params)
                      if name == "prord" else None)
            policy, replicator = build_policy(name, mining, params)
            r = run_closed_loop(workload.site, policy, params,
                                concurrency=concurrency, duration_s=4.0,
                                spec=spec, replicator=replicator)
            row.append(r.throughput_rps)
        print(f"{row[0]:9d} {row[1]:8.0f} {row[2]:8.0f}")


def main() -> None:
    backend_scaling()
    memory_sizing()
    closed_loop_capacity()


if __name__ == "__main__":
    main()

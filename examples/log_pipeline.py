#!/usr/bin/env python3
"""The operator's workflow: logs on disk → simulation → trace.

Demonstrates the persistence and observability surface of the library:

1. save a workload to disk as ``site.json`` + two Common-Log-Format
   files (the format the paper's simulator consumes);
2. reload it, run a traced simulation and follow one request's
   lifecycle through the cluster.

Run:  python examples/log_pipeline.py
"""

import tempfile
from pathlib import Path

from repro.core import SimulationParams, mine_components, build_policy
from repro.logs import load_workload, save_workload, synthetic_workload
from repro.sim import ClusterSimulator, RequestTracer


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="prord-"))

    # 1. persist ---------------------------------------------------------
    workload = synthetic_workload(scale=0.1)
    save_workload(workload, workdir)
    print(f"saved workload to {workdir} "
          f"({', '.join(p.name for p in sorted(workdir.iterdir()))})")

    # 2. reload + traced simulation --------------------------------------
    workload = load_workload(workdir)
    params = SimulationParams(
        n_backends=4,
        cache_bytes=int(0.3 * workload.site_bytes / 4),
    )
    mining = mine_components(workload, params)
    policy, replicator = build_policy("prord", mining, params)
    tracer = RequestTracer(capacity=50_000)
    cluster = ClusterSimulator(workload.trace, policy, params,
                               replicator=replicator, tracer=tracer)
    result = cluster.run()
    print(f"\nsimulated: {result.summary()}")
    print(f"trace: {tracer.summary()}")

    # Follow the first connection's page requests through the system.
    conn = workload.trace[0].conn_id
    print(f"\nlifecycle of connection {conn}:")
    for event in tracer.for_connection(conn)[:9]:
        fields = dict(event.fields)
        extra = ", ".join(f"{k}={v}" for k, v in sorted(fields.items())
                          if k in ("server", "hit", "dispatched", "handoff"))
        print(f"  t={event.time * 1e3:9.3f} ms  {event.kind:>8s}  "
              f"{event.path:<28s} {extra}")
    jsonl = workdir / "trace.jsonl"
    jsonl.write_text(tracer.to_jsonl())
    print(f"\nfull event trace written to {jsonl}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Explore the web-log-mining substrate on its own.

No cluster here — just the mining layer the paper builds PRORD on:

* dependency graphs (Fig. 3: confidence-labelled navigation edges),
* Algorithm-1 candidate paths,
* and the table size of the dependency graph against the PPM
  comparator's (the memory concern the paper raises about PPM).

Run:  python examples/mining_explorer.py
"""

from repro.logs import page_sequences, sessionize, synthetic_workload
from repro.mining import DependencyGraph, PPMPredictor


def main() -> None:
    workload = synthetic_workload(scale=0.5)
    print(workload.summary())

    sessions = sessionize(workload.training_records)
    sequences = page_sequences(sessions, min_length=2)
    print(f"{len(sequences)} training sequences")

    # --- dependency graph (Fig. 3) ------------------------------------
    graph = DependencyGraph(order=2).train(sequences)
    print(f"\ndependency graph: {graph.num_pages} pages, "
          f"{graph.num_contexts} contexts, "
          f"{graph.memory_cells()} table cells")
    start = sequences[0][0]
    print(f"edge confidences out of {start!r}:")
    for page, conf in sorted(graph.edge_confidences(start).items(),
                             key=lambda kv: -kv[1])[:4]:
        print(f"  -> {page}  ({conf:.0%})")
    paths = graph.candidate_paths(start, order=2, max_paths=8)
    print(f"first Algorithm-1 candidate paths from {start!r}:")
    for p in paths[:5]:
        print("  " + " -> ".join(p))

    # --- memory comparison (the paper's DG-vs-PPM concern) -------------
    ppm = PPMPredictor(order=3).train(sequences)
    print(f"\ntable sizes: dependency graph {graph.memory_cells()} cells "
          f"(order {graph.order}) vs PPM {ppm.memory_cells()} cells "
          f"(order {ppm.order})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Explore the web-log-mining substrate on its own.

No cluster here — just the mining layer the paper builds PRORD on:

* dependency graphs (Fig. 3: confidence-labelled navigation edges),
* Algorithm-1 candidate paths,
* bundle discovery,
* and a bake-off of the four next-page predictor families the paper
  surveys (dependency graph, PPM, sequence rules, association rules),
  reproducing [21]'s "sequence rules beat association rules" finding.

Run:  python examples/mining_explorer.py
"""

from repro.logs import page_sequences, sessionize, synthetic_workload
from repro.mining import (
    AprioriMiner,
    AssociationPredictor,
    DependencyGraph,
    PPMPredictor,
    SequenceMiner,
    SequencePredictor,
    evaluate_predictor,
)


def main() -> None:
    workload = synthetic_workload(scale=0.5)
    print(workload.summary())

    sessions = sessionize(workload.training_records)
    sequences = page_sequences(sessions, min_length=2)
    held_out = page_sequences(sessionize(
        [r for r in _eval_records(workload)]), min_length=2)
    print(f"{len(sequences)} training sequences, "
          f"{len(held_out)} held-out sequences")

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

    # --- predictor bake-off --------------------------------------------
    print("\nnext-page predictor comparison (held-out traffic):")
    predictors = {
        "dependency-graph": DependencyGraph(order=2).train(sequences),
        "ppm(order=3)": PPMPredictor(order=3).train(sequences),
        "sequence-rules": SequencePredictor(
            SequenceMiner(max_length=3, min_support=2)).train(sequences),
        "association-rules": AssociationPredictor(
            AprioriMiner(min_support=0.01), min_confidence=0.1
        ).train(sequences),
    }
    print(f"{'predictor':>18s} {'accuracy':>9s} {'coverage':>9s} "
          f"{'useful':>7s}")
    for name, predictor in predictors.items():
        report = evaluate_predictor(predictor, held_out)
        print(f"{name:>18s} {report.accuracy:9.1%} "
              f"{report.coverage:9.1%} {report.useful_fraction:7.1%}")

    # --- memory comparison (the paper's DG-vs-PPM concern) -------------
    dg = predictors["dependency-graph"]
    ppm = predictors["ppm(order=3)"]
    print(f"\ntable sizes: dependency graph {dg.memory_cells()} cells "
          f"(order {dg.order}) vs PPM {ppm.memory_cells()} cells "
          f"(order {ppm.order})")


def _eval_records(workload):
    """Rebuild CLF-ish records from the eval trace for sessionizing."""
    from repro.logs import LogRecord
    for r in workload.trace:
        yield LogRecord(host=f"c{r.conn_id}", timestamp=r.arrival,
                        method="GET", path=r.path, protocol="HTTP/1.1",
                        status=200, size=r.size)


if __name__ == "__main__":
    main()

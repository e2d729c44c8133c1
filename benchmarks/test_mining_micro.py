"""Micro-benchmarks for the web-log-mining substrate.

Not a paper figure — these keep the mining layer's costs visible
(training throughput, prediction latency, parser speed), which matters
because the paper's front end consults these structures per request.
"""


import pytest

from repro.logs import (
    format_line,
    page_sequences,
    parse_line,
    sessionize,
    synthetic_workload,
)
from repro.mining import (
    BundleMiner,
    DependencyGraph,
    PPMPredictor,
    PrefetchPredictor,
    RankTable,
)


@pytest.fixture(scope="module")
def training():
    w = synthetic_workload(scale=0.3)
    return w.training_records


@pytest.fixture(scope="module")
def sequences(training):
    return page_sequences(sessionize(training), min_length=2)


def test_clf_parse(benchmark, training):
    lines = [format_line(r) for r in training[:2000]]
    out = benchmark(lambda: [parse_line(l) for l in lines])
    assert len(out) == 2000


def test_sessionize(benchmark, training):
    sessions = benchmark(lambda: sessionize(training))
    assert len(sessions) > 100


def test_depgraph_training(benchmark, sequences):
    g = benchmark(lambda: DependencyGraph(order=2).train(sequences))
    assert g.num_contexts > 100


def test_depgraph_prediction(benchmark, sequences):
    g = DependencyGraph(order=2).train(sequences)
    contexts = [seq[:2] for seq in sequences if len(seq) >= 2][:500]

    def predict_all():
        return sum(1 for c in contexts if g.predict(c) is not None)

    hits = benchmark(predict_all)
    assert hits > 0


def test_prefetch_predictor_stream(benchmark, sequences):
    g = DependencyGraph(order=2).train(sequences)

    def stream():
        p = PrefetchPredictor(g, threshold=0.3, online_update=True)
        n = 0
        for conn, seq in enumerate(sequences[:300]):
            for page in seq:
                if p.observe(conn, page) is not None:
                    n += 1
            p.close(conn)
        return n

    fired = benchmark(stream)
    assert fired >= 0


def test_ppm_training(benchmark, sequences):
    p = benchmark(lambda: PPMPredictor(order=3).train(sequences))
    assert p.num_contexts > 100


def test_bundle_mining(benchmark, training):
    table = benchmark(lambda: BundleMiner().mine(training))
    assert len(table) > 10


def test_rank_table(benchmark, training):
    table = benchmark(lambda: RankTable.from_records(training))
    assert len(table) > 100

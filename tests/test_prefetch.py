"""Tests for the Algorithm-2 prefetch predictor."""

import pytest
from hypothesis import given, strategies as st

from repro.mining import DependencyGraph, PrefetchPredictor


def trained_graph():
    g = DependencyGraph(order=2)
    for _ in range(9):
        g.add_sequence(["a", "b", "c"])
    g.add_sequence(["a", "b", "d"])
    return g


class TestValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            PrefetchPredictor(trained_graph(), threshold=1.5)


class TestDecisions:
    def test_high_confidence_fires(self):
        p = PrefetchPredictor(trained_graph(), threshold=0.5,
                              online_update=False)
        assert p.observe(1, "a") is None or True  # first page may predict b
        decision = p.observe(1, "b")
        assert decision is not None
        assert decision.page == "c"
        assert decision.confidence == pytest.approx(0.9)
        assert decision.context == ("a", "b")

    def test_threshold_suppresses(self):
        p = PrefetchPredictor(trained_graph(), threshold=0.95,
                              online_update=False)
        p.observe(1, "a")
        assert p.observe(1, "b") is None

    def test_no_prediction_for_unknown_page(self):
        p = PrefetchPredictor(trained_graph(), online_update=False)
        assert p.observe(1, "unknown") is None

    def test_never_prefetches_current_page(self):
        g = DependencyGraph(order=1)
        g.add_sequence(["x", "x", "x"])  # degenerate self-transitions
        p = PrefetchPredictor(g, threshold=0.0, online_update=False)
        assert p.observe(1, "x") is None

    def test_connections_independent(self):
        p = PrefetchPredictor(trained_graph(), threshold=0.5,
                              online_update=False)
        p.observe(1, "a")
        # Connection 2 has no context; "b" alone still predicts c at 0.9.
        d2 = p.observe(2, "b")
        assert d2 is not None and d2.context == ("b",)


class TestStats:
    def test_accuracy_tracking(self):
        p = PrefetchPredictor(trained_graph(), threshold=0.5,
                              online_update=False)
        p.observe(1, "a")   # predicts b (a->b conf 1.0)
        p.observe(1, "b")   # b arrives: correct; now predicts c
        p.observe(1, "d")   # d arrives: wasted
        assert p.stats.correct == 1
        assert p.stats.wasted == 1
        assert p.stats.accuracy == pytest.approx(0.5)
        assert p.stats.observed == 3

    def test_close_counts_pending_as_wasted(self):
        p = PrefetchPredictor(trained_graph(), threshold=0.5,
                              online_update=False)
        p.observe(1, "a")
        assert p.open_connections == 1
        p.close(1)
        assert p.stats.wasted == 1
        assert p.open_connections == 0

    def test_close_unknown_connection_is_noop(self):
        p = PrefetchPredictor(trained_graph())
        p.close(42)
        assert p.stats.wasted == 0

    def test_empty_stats(self):
        p = PrefetchPredictor(trained_graph())
        assert p.stats.accuracy == 0.0
        assert p.stats.coverage == 0.0


class TestOnlineUpdate:
    def test_online_learning_adapts(self):
        g = DependencyGraph(order=1)
        g.add_sequence(["a", "b"])  # prior: a -> b
        p = PrefetchPredictor(g, threshold=0.5, online_update=True)
        # Stream many a -> z transitions on separate connections.
        for conn in range(10):
            p.observe(conn, "a")
            p.observe(conn, "z")
        d = p.observe(99, "a")
        assert d is not None and d.page == "z"

    def test_offline_mode_leaves_graph_untouched(self):
        g = trained_graph()
        before = g.memory_cells()
        p = PrefetchPredictor(g, online_update=False)
        p.observe(1, "a")
        p.observe(1, "q")
        assert g.memory_cells() == before


class TestTopK:
    def test_top_k_validated(self):
        with pytest.raises(ValueError):
            PrefetchPredictor(trained_graph(), top_k=0)
        p = PrefetchPredictor(trained_graph())
        with pytest.raises(ValueError):
            p.observe_many(1, "a", k=0)

    def test_observe_many_returns_sorted_candidates(self):
        g = DependencyGraph(order=1)
        for _ in range(6):
            g.add_sequence(["a", "b"])
        for _ in range(3):
            g.add_sequence(["a", "c"])
        g.add_sequence(["a", "d"])
        p = PrefetchPredictor(g, threshold=0.05, online_update=False,
                              top_k=2)
        decisions = p.observe_many(1, "a")
        assert [d.page for d in decisions] == ["b", "c"]
        assert decisions[0].confidence > decisions[1].confidence

    def test_multi_pending_accounting(self):
        g = DependencyGraph(order=1)
        for _ in range(5):
            g.add_sequence(["a", "b"])
        for _ in range(4):
            g.add_sequence(["a", "c"])
        p = PrefetchPredictor(g, threshold=0.1, online_update=False,
                              top_k=2)
        assert len(p.observe_many(1, "a")) == 2
        p.observe_many(1, "c")   # one of the two predictions was right
        assert p.stats.correct == 1
        assert p.stats.wasted == 1

    def test_close_counts_all_pending(self):
        g = trained_graph()
        p = PrefetchPredictor(g, threshold=0.05, online_update=False,
                              top_k=2)
        fired = p.observe_many(1, "b")
        p.close(1)
        assert p.stats.wasted == len(fired)

    def test_observe_single_contract_unchanged(self):
        p = PrefetchPredictor(trained_graph(), threshold=0.5,
                              online_update=False)
        p.observe(1, "a")
        d = p.observe(1, "b")
        assert d is not None and d.page == "c"


class CandidatesOnly:
    """A graph seen only through the duck-typed predictor surface, so
    the predictor takes the unmemoised ``candidates()`` path."""

    def __init__(self, graph):
        self._graph = graph
        self.order = graph.order

    def candidates(self, context):
        return self._graph.candidates(context)

    def record_transition(self, prev, nxt):
        self._graph.record_transition(prev, nxt)


PAGES = st.sampled_from("abcde")
OPS = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 3), PAGES,
              st.integers(1, 3)),
    st.tuples(st.just("close"), st.integers(0, 3)),
)


class TestMemoisedRanking:
    @given(
        order=st.integers(1, 3),
        sequences=st.lists(st.lists(PAGES, min_size=2, max_size=6),
                           max_size=12),
        threshold=st.sampled_from([0.0, 0.2, 0.35, 0.5]),
        ops=st.lists(OPS, max_size=60),
    )
    def test_property_matches_unmemoised(self, order, sequences,
                                         threshold, ops):
        g = DependencyGraph(order=order).train(sequences)
        memo = PrefetchPredictor(g.copy(), threshold=threshold)
        plain = PrefetchPredictor(CandidatesOnly(g.copy()),
                                  threshold=threshold)
        for op in ops:
            if op[0] == "observe":
                _, conn, page, k = op
                assert (memo.observe_many(conn, page, k)
                        == plain.observe_many(conn, page, k))
            else:
                memo.close(op[1])
                plain.close(op[1])
            assert memo.stats == plain.stats

"""Tests for the n-order dependency graph (Algorithm 1 + prediction)."""

import pytest
from hypothesis import given, strategies as st

from repro.mining import DependencyGraph


@pytest.fixture
def fig3_graph():
    """Recreate the paper's Fig. 3 scenario: sequences through page D.

    70% of sequences starting A→D continue to C; 60% of B→D go to E.
    """
    g = DependencyGraph(order=2)
    for _ in range(7):
        g.add_sequence(["A", "D", "C"])
    for _ in range(3):
        g.add_sequence(["A", "D", "E"])
    for _ in range(6):
        g.add_sequence(["B", "D", "E"])
    for _ in range(4):
        g.add_sequence(["B", "D", "C"])
    return g


class TestTraining:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            DependencyGraph(order=0)

    def test_links_recorded(self):
        g = DependencyGraph().train([["a", "b", "c"]])
        # One hop of Algorithm 1 follows exactly the direct links.
        assert g.candidate_paths("a", order=1) == [("a",), ("a", "b")]
        assert g.candidate_paths("b", order=1) == [("b",), ("b", "c")]
        assert g.candidate_paths("c", order=1) == [("c",)]

    def test_self_loop_not_linked(self):
        g = DependencyGraph().train([["a", "a"]])
        # The repeat still counts as a transition, but links no page.
        assert g.candidates(["a"]) == ({"a": 1.0}, 1)
        assert g.num_pages == 0

    def test_counts_pages_and_contexts(self):
        g = DependencyGraph(order=2).train([["a", "b", "c"]])
        assert g.num_pages == 3
        # contexts: (a,), (b,), (a,b)
        assert g.num_contexts == 3
        assert g.trained_sequences == 1

    def test_record_transition_online(self):
        g = DependencyGraph()
        g.record_transition("a", "b")
        assert g.candidate_paths("a", order=1) == [("a",), ("a", "b")]
        assert g.predict(["a"]).page == "b"


class TestFig3Confidences:
    def test_second_order_confidences(self, fig3_graph):
        cands, matched = fig3_graph.candidates(["A", "D"])
        assert matched == 2
        assert cands["C"] == pytest.approx(0.7)
        assert cands["E"] == pytest.approx(0.3)
        cands, _ = fig3_graph.candidates(["B", "D"])
        assert cands["E"] == pytest.approx(0.6)

    def test_context_disambiguates(self, fig3_graph):
        assert fig3_graph.predict(["A", "D"]).page == "C"
        assert fig3_graph.predict(["B", "D"]).page == "E"

    def test_first_order_fallback(self, fig3_graph):
        # Context (Z, D): Z unseen, falls back to 1-order stats for D.
        pred = fig3_graph.predict(["Z", "D"])
        assert pred.context_length == 1
        # Overall D -> C 11/20, D -> E 9/20.
        assert pred.page == "C"
        assert pred.confidence == pytest.approx(0.55)

    def test_unknown_context_returns_none(self, fig3_graph):
        assert fig3_graph.predict(["nope"]) is None
        assert fig3_graph.candidates(["nope"]) == ({}, 0)


class TestPrediction:
    def test_confidence_normalised(self):
        g = DependencyGraph().train([["a", "b"], ["a", "c"], ["a", "b"]])
        cands, _ = g.candidates(["a"])
        assert sum(cands.values()) == pytest.approx(1.0)

    def test_deterministic_tiebreak(self):
        g = DependencyGraph().train([["a", "b"], ["a", "c"]])
        assert g.predict(["a"]).page == "c"  # ties break to larger name

    def test_context_longer_than_order_truncated(self):
        g = DependencyGraph(order=1).train([["a", "b", "c"]])
        pred = g.predict(["x", "y", "b"])
        assert pred.page == "c"
        assert pred.context_length == 1

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=2,
                             max_size=8), min_size=1, max_size=30))
    def test_property_confidences_form_distribution(self, seqs):
        g = DependencyGraph(order=2).train(seqs)
        for seq in seqs:
            for i in range(1, len(seq)):
                cands, matched = g.candidates(seq[:i])
                assert cands, "trained context must have candidates"
                assert matched >= 1
                assert sum(cands.values()) == pytest.approx(1.0)
                assert all(0 < c <= 1 for c in cands.values())

    @given(st.lists(st.lists(st.sampled_from("abcd"), min_size=2,
                             max_size=6), min_size=1, max_size=20))
    def test_property_predicted_page_is_linked(self, seqs):
        g = DependencyGraph(order=2).train(seqs)
        for seq in seqs:
            pred = g.predict(seq[:1])
            if pred is not None and pred.context_length == 1:
                last = seq[0]
                assert ((last, pred.page) in g.candidate_paths(last, order=1)
                        or pred.page == last)


class TestCandidatePaths:
    def make_chain(self):
        return DependencyGraph(order=3).train([["a", "b", "c", "d"]])

    def test_algorithm1_enumeration(self):
        g = self.make_chain()
        paths = g.candidate_paths("a", order=2)
        assert ("a",) in paths
        assert ("a", "b") in paths
        assert ("a", "b", "c") in paths
        assert ("a", "b", "c", "d") not in paths

    def test_order_zero(self):
        g = self.make_chain()
        assert g.candidate_paths("a", order=0) == [("a",)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            self.make_chain().candidate_paths("a", order=-1)

    def test_cycles_kept_simple(self):
        g = DependencyGraph(order=4).train([["a", "b", "a", "b", "a"]])
        for path in g.candidate_paths("a", order=4):
            assert len(set(path)) == len(path)

    def test_max_paths_bounds_enumeration(self):
        # A dense graph would explode; max_paths must cap it.
        seqs = [[f"p{i}", f"p{j}"] for i in range(12) for j in range(12)
                if i != j]
        g = DependencyGraph(order=3).train(seqs)
        paths = g.candidate_paths("p0", order=3, max_paths=50)
        assert len(paths) == 50

    def test_memory_cells_grow_with_order(self):
        seqs = [["a", "b", "c", "d", "e"]] * 3
        small = DependencyGraph(order=1).train(seqs)
        big = DependencyGraph(order=3).train(seqs)
        assert big.memory_cells() > small.memory_cells()

    def test_edge_confidences_view(self):
        g = DependencyGraph().train([["a", "b"], ["a", "b"], ["a", "c"]])
        conf = g.edge_confidences("a")
        assert conf["b"] == pytest.approx(2 / 3)

"""Tests for the PPM comparator predictor (``predictor_kind="ppm"``)."""

import pytest

from repro.mining import DependencyGraph, PPMPredictor

TRAIN = [
    ["a", "b", "c"],
    ["a", "b", "c"],
    ["a", "b", "d"],
    ["x", "b", "e"],
    ["x", "b", "e"],
]


class TestPPM:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            PPMPredictor(order=0)

    def test_longest_match_wins(self):
        p = PPMPredictor(order=2).train(TRAIN)
        assert p.predict(["a", "b"]).page == "c"
        assert p.predict(["x", "b"]).page == "e"

    def test_fallback_to_lower_order(self):
        p = PPMPredictor(order=2).train(TRAIN)
        pred = p.predict(["zzz", "b"])
        assert pred.context_length == 1
        # b -> c:2, d:1, e:2 — tie c/e broken to larger name.
        assert pred.page == "e"

    def test_unknown_returns_none(self):
        p = PPMPredictor(order=2).train(TRAIN)
        assert p.predict(["nope"]) is None

    def test_blend_mode_mixes_orders(self):
        p = PPMPredictor(order=2, blend=True).train(TRAIN)
        pred = p.predict(["a", "b"])
        assert pred is not None
        # Order-2 (a,b)->c dominates, but order-1 b->e pulls the score
        # below the pure 2/3.
        assert pred.page == "c"
        assert 0.4 < pred.confidence < 0.9

    def test_memory_exceeds_depgraph_cells(self):
        # PPM stores every context; the DG stores the same n-gram counts
        # but its *candidate path* expansion is bounded by real links, so
        # on sequences with teleports PPM's table is at least as large.
        seqs = [["a", "b", "c", "a", "d"], ["d", "b", "a"], ["c", "d", "b"]]
        ppm = PPMPredictor(order=3).train(seqs)
        dg = DependencyGraph(order=3).train(seqs)
        assert ppm.memory_cells() >= dg.memory_cells()

    def test_candidates_api_compatible(self):
        p = PPMPredictor(order=2).train(TRAIN)
        cands, matched = p.candidates(["a", "b"])
        assert matched == 2
        assert cands["c"] == pytest.approx(2 / 3)

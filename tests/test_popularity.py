"""Tests for popularity mining (rank tables and the online tracker)."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.logs import LogRecord
from repro.mining import PopularityTracker, RankTable


def rec(path, status=200):
    return LogRecord(host="h", timestamp=0.0, method="GET", path=path,
                     protocol="HTTP/1.1", status=status, size=1)


class TestRankTable:
    def test_from_paths_counts(self):
        t = RankTable.from_paths(["/a", "/a", "/b"])
        assert t.count("/a") == 2
        assert t.count("/b") == 1
        assert t.count("/zzz") == 0

    def test_rank_normalized(self):
        t = RankTable.from_paths(["/a", "/a", "/a", "/a", "/b"])
        assert t.rank("/a") == 1.0
        assert t.rank("/b") == 0.25
        assert t.rank("/zzz") == 0.0

    def test_empty_table(self):
        t = RankTable({})
        assert len(t) == 0
        assert t.rank("/a") == 0.0
        assert t.top(5) == []

    def test_from_records_filters_failures(self):
        t = RankTable.from_records([rec("/a"), rec("/bad", status=404)])
        assert "/a" in t
        assert "/bad" not in t

    def test_top_ordering_and_ties(self):
        t = RankTable.from_paths(["/b", "/a", "/a", "/c", "/c"])
        assert t.top(2) == [("/a", 2), ("/c", 2)]

    def test_zero_counts_dropped(self):
        t = RankTable({"/a": 0, "/b": 3})
        assert "/a" not in t
        assert len(t) == 1

    def test_merged_with(self):
        a = RankTable({"/a": 2})
        b = RankTable({"/a": 2, "/b": 4})
        m = a.merged_with(b, weight=0.5)
        assert m.count("/a") == 3
        assert m.count("/b") == 2

    @given(st.dictionaries(st.text(min_size=1, max_size=5),
                           st.integers(min_value=1, max_value=1000),
                           min_size=1, max_size=30))
    def test_property_rank_bounds(self, counts):
        t = RankTable(counts)
        for p in counts:
            assert 0.0 < t.rank(p) <= 1.0
        assert any(t.rank(p) == 1.0 for p in counts)


class TestPopularityTracker:
    def test_requires_positive_half_life(self):
        for half_life in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="half_life"):
                PopularityTracker(half_life=half_life)

    def test_record_and_rank(self):
        tr = PopularityTracker(half_life=10)
        tr.record("/a", 0.0)
        tr.record("/a", 0.0)
        tr.record("/b", 0.0)
        assert tr.rank("/a") == 1.0
        assert tr.rank("/b") == pytest.approx(0.5)

    def test_decay_demotes_stale(self):
        tr = PopularityTracker(half_life=1.0)
        for _ in range(8):
            tr.record("/old", 0.0)
        tr.record("/new", 10.0)  # 10 half-lives later
        assert tr.rank("/new") == 1.0
        assert tr.rank("/old") < 0.05

    def test_time_cannot_go_backwards(self):
        tr = PopularityTracker(half_life=1.0)
        tr.record("/a", 5.0)
        with pytest.raises(ValueError):
            tr.record("/b", 1.0)

    @pytest.mark.parametrize("now", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, now):
        tr = PopularityTracker(half_life=1.0)
        tr.record("/a", 0.0)
        tr.record("/a", 0.0)
        with pytest.raises(ValueError, match="finite"):
            tr.record("/b", now)
        # The rejected hit left no trace: time still decays normally.
        tr.record("/b", 100.0)
        assert tr.top(2) == [("/b", 1.0), ("/a", pytest.approx(2.0 / 2**100))]

    def test_long_quiet_span(self):
        # Ten thousand half-lives in one step: the decayed score
        # underflows to zero instead of overflowing the hit weight.
        tr = PopularityTracker(half_life=1.0)
        tr.record("/old", 0.0)
        tr.record("/new", 10_000.0)
        assert tr.top(2) == [("/new", 1.0), ("/old", 0.0)]
        assert tr.rank("/old") == 0.0
        assert tr.rank("/new") == 1.0

    def test_prior_seeds_ranking(self):
        prior = RankTable({"/hot": 100, "/cool": 10})
        tr = PopularityTracker(prior, half_life=60)
        assert tr.rank("/hot") == 1.0
        assert tr.rank("/cool") == pytest.approx(0.1)

    def test_online_overrides_prior(self):
        prior = RankTable({"/hot": 100})
        tr = PopularityTracker(prior, half_life=60, prior_weight=0.5)
        for _ in range(5):
            tr.record("/rising", 1.0)
        assert tr.rank("/rising") == 1.0
        assert tr.rank("/hot") < 1.0

    def test_snapshot_roundtrip(self):
        tr = PopularityTracker(half_life=60)
        tr.record("/a", 0.0)
        tr.record("/a", 0.0)
        tr.record("/b", 0.0)
        snap = tr.snapshot()
        assert snap.rank("/a") == 1.0
        assert snap.rank("/b") == pytest.approx(0.5, abs=1e-5)

    def test_empty_tracker(self):
        tr = PopularityTracker()
        assert tr.rank("/a") == 0.0
        assert len(tr.snapshot()) == 0
        assert tr.top(3) == []

    def test_top(self):
        tr = PopularityTracker(half_life=60)
        tr.record("/a", 0.0)
        tr.record("/a", 0.0)
        tr.record("/b", 0.0)
        names = [p for p, _ in tr.top(2)]
        assert names == ["/a", "/b"]


class StepDecayReference:
    """The step-by-step decay the tracker must agree with: every score
    is multiplied by ``exp(-λ·dt)`` whenever time advances."""

    def __init__(self, prior, half_life, prior_weight):
        self.lam = math.log(2.0) / half_life
        self.scores = {}
        self.last = 0.0
        if prior:
            top_count = max(prior.values())
            for path, count in prior.items():
                self.scores[path] = prior_weight * count / top_count

    def record(self, path, now):
        if now > self.last:
            factor = math.exp(-self.lam * (now - self.last))
            for p in self.scores:
                self.scores[p] *= factor
        self.last = now
        self.scores[path] = self.scores.get(path, 0.0) + 1.0


PATHS = st.sampled_from(["/a", "/b", "/c", "/d", "/e"])
#: steps in half-lives: ties, short gaps, and jumps past the 64
#: half-lives after which the tracker re-bases its scores
STEPS = st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(60.0, 70.0))


class TestMatchesStepDecay:
    @given(
        prior=st.none() | st.dictionaries(
            PATHS, st.integers(1, 100), min_size=1),
        prior_weight=st.sampled_from([0.5, 1.0, 4.0]),
        half_life=st.sampled_from([0.5, 1.0, 60.0]),
        hits=st.lists(st.tuples(PATHS, STEPS), min_size=1, max_size=60),
    )
    def test_property_ranks_and_top(self, prior, prior_weight, half_life,
                                    hits):
        # Bounded so no reference score underflows.
        assume(sum(dt for _, dt in hits) <= 400)
        tr = PopularityTracker(RankTable(prior) if prior else None,
                               half_life=half_life,
                               prior_weight=prior_weight)
        ref = StepDecayReference(prior, half_life, prior_weight)
        now = 0.0
        for path, dt in hits:
            now += dt * half_life
            tr.record(path, now)
            ref.record(path, now)
        peak = max(ref.scores.values())
        for path, score in ref.scores.items():
            assert math.isclose(tr.rank(path), score / peak, rel_tol=1e-9)
        top = tr.top(len(tr))
        assert sorted(p for p, _ in top) == sorted(ref.scores)
        for path, score in top:
            assert math.isclose(score, ref.scores[path], rel_tol=1e-9)
        # Order agrees wherever the reference tells two scores apart.
        for (hi, _), (lo, _) in zip(top, top[1:]):
            assert not ref.scores[lo] > ref.scores[hi] * (1 + 1e-9)

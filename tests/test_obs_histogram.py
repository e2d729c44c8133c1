"""Tests for the streaming log-bucketed histogram."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs import StreamingHistogram


def filled(values, **kwargs):
    h = StreamingHistogram(**kwargs)
    h.extend(values)
    return h


class TestBucketing:
    def test_empty(self):
        h = StreamingHistogram()
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_counts_and_total(self):
        h = filled([0.001, 0.002, 0.003])
        assert h.count == 3
        assert h.total == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_zero_and_underflow_values(self):
        h = StreamingHistogram(min_value=1e-3)
        h.add(0.0)
        h.add(1e-9)  # below min_value → underflow bucket
        h.add(0.5)
        assert h.count == 3
        # Half the mass at (near) zero → p50 is an underflow value.
        assert h.percentile(50) <= 1e-3

    def test_negative_rejected(self):
        h = StreamingHistogram()
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)


class TestExtend:
    @given(
        before=st.lists(st.floats(0.0, 10.0), max_size=5),
        values=st.lists(
            st.one_of(st.floats(0.0, 10.0), st.just(0.0), st.just(-0.0),
                      st.floats(1e-12, 1e-3)),
            max_size=300),
    )
    def test_extend_equals_one_add_per_value(self, before, values):
        batch = StreamingHistogram(min_value=1e-3)
        single = StreamingHistogram(min_value=1e-3)
        for v in before:
            batch.add(v)
            single.add(v)
        batch.extend(iter(values))
        for v in values:
            single.add(v)
        assert batch.to_dict() == single.to_dict()
        # ``to_dict`` keeps floats exact: ``total`` is summed in order.
        assert batch.total == single.total

    def test_bad_value_raises_like_add(self):
        for bad, error in ((-1.0, ValueError), (math.nan, ValueError),
                           (math.inf, OverflowError)):
            batch = StreamingHistogram()
            single = StreamingHistogram()
            with pytest.raises(error):
                batch.extend([0.5, bad, 0.7])
            single.add(0.5)
            with pytest.raises(error):
                single.add(bad)
            # The same partial state as add: the values before the bad
            # one, and whatever add records before raising.
            assert batch.count == single.count
            assert batch._buckets == single._buckets == {
                single._index(0.5): 1}


class TestPercentiles:
    """Accuracy contract: within one bucket width (growth factor)."""

    @pytest.mark.parametrize("q", (50, 90, 95, 99))
    @pytest.mark.parametrize("seed", (0, 7))
    def test_matches_numpy_within_one_bucket(self, q, seed):
        rng = np.random.default_rng(seed)
        # Response-time-like: lognormal spanning ~3 decades.
        values = rng.lognormal(mean=-5.0, sigma=1.2, size=5000)
        h = filled(values.tolist())
        ours = h.percentile(q)
        ref = float(np.percentile(values, q))
        # Log-bucketed estimates are off by at most one growth factor.
        assert ref / h.growth <= ours <= ref * h.growth

    def test_monotone_in_q(self):
        h = filled([0.001 * (i + 1) for i in range(200)])
        ps = [h.percentile(q) for q in (10, 50, 90, 99, 100)]
        assert ps == sorted(ps)

    def test_percentiles_helper(self):
        h = filled([0.01] * 10)
        out = h.percentiles((50, 95))
        assert set(out) == {50, 95}
        for v in out.values():
            assert 0.01 / h.growth <= v <= 0.01 * h.growth


class TestMerge:
    def test_merge_equals_union(self):
        a_vals = [0.001 * (i + 1) for i in range(100)]
        b_vals = [0.01 * (i + 1) for i in range(50)]
        merged = filled(a_vals)
        merged.merge(filled(b_vals))
        union = filled(a_vals + b_vals)
        dm, du = merged.to_dict(), union.to_dict()
        # total may differ in the last ulp (summation order); the rest
        # of the sketch — bucket counts included — is exactly equal.
        assert dm.pop("total") == pytest.approx(du.pop("total"))
        assert dm == du
        assert merged.count == 150

    def test_merge_requires_same_bucketing(self):
        a = StreamingHistogram(growth=1.05)
        b = StreamingHistogram(growth=1.1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_copy_is_independent(self):
        a = filled([0.01])
        b = a.copy()
        b.add(0.02)
        assert a.count == 1
        assert b.count == 2


class TestSerialization:
    def test_dict_round_trip(self):
        h = filled([0.0, 1e-9, 0.001, 0.5, 2.0])
        again = StreamingHistogram.from_dict(h.to_dict())
        assert again == h
        assert again.percentile(95) == h.percentile(95)

    def test_pickle_round_trip(self):
        h = filled([0.001, 0.1, 3.0])
        again = pickle.loads(pickle.dumps(h))
        assert again == h

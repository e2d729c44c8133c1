"""Streaming log-bucketed histograms for latency-style metrics.

The paper's evaluation reports only a mean response time; a serving
stack needs tail percentiles, and a long simulation cannot afford to
retain every completion record just to sort it at the end.
:class:`StreamingHistogram` keeps geometrically-spaced buckets (each
``growth`` times wider than the last, so relative resolution is uniform
across decades of latency), supports O(1) inserts, merges bucket-wise
across runs and worker processes, and answers percentile queries to
within one bucket width — the guarantee the regression tests assert
against :func:`numpy.percentile` on the same samples.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import truediv
from typing import Iterable, Mapping

__all__ = ["StreamingHistogram"]


class StreamingHistogram:
    """Log-bucketed streaming histogram over non-negative values.

    Parameters
    ----------
    min_value:
        Lower edge of the first bucket; smaller (but positive) values
        land in a dedicated underflow bucket, zeros in a zero bucket.
    growth:
        Geometric bucket-width factor (> 1).  Relative quantile error
        is bounded by ``growth - 1`` (default 5%).
    """

    __slots__ = ("min_value", "growth", "_log_growth", "_buckets",
                 "count", "total", "zeros", "underflow",
                 "min_seen", "max_seen")

    def __init__(self, *, min_value: float = 1e-6,
                 growth: float = 1.05) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.zeros = 0
        self.underflow = 0
        self.min_seen = math.inf
        self.max_seen = 0.0

    # -- recording ---------------------------------------------------------

    def _index(self, value: float) -> int:
        return int(math.floor(
            math.log(value / self.min_value) / self._log_growth
        ))

    def add(self, value: float) -> None:
        """Record one observation (O(1))."""
        if value < 0:
            raise ValueError(f"negative observation: {value}")
        self.count += 1
        self.total += value
        self.min_seen = min(self.min_seen, value)
        self.max_seen = max(self.max_seen, value)
        if value == 0.0:
            self.zeros += 1
        elif value < self.min_value:
            self.underflow += 1
        else:
            idx = self._index(value)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations; the result equals one :meth:`add`
        per value, in order.

        The buckets are counted at C speed: ``map`` over the same index
        expression as :meth:`_index`, then a :class:`Counter`.  ``total``
        is summed by plain addition in order, because ``sum()`` is
        compensated from Python 3.12, which would change its last bits.
        A batch holding a negative, NaN or infinite value goes through
        :meth:`add` one value at a time, which raises at that value.
        """
        values = list(values)
        if not values:
            return
        total = self.total
        for value in values:
            total += value
        low = min(values)
        if not (low >= 0.0 and math.isfinite(total)):
            for value in values:
                self.add(value)
            return
        min_value = self.min_value
        in_range = values
        if low < min_value:
            in_range = [v for v in values if v >= min_value]
            zeros = values.count(0.0)
            self.zeros += zeros
            self.underflow += len(values) - zeros - len(in_range)
        indices = map(math.floor, map(
            truediv,
            map(math.log, map(truediv, in_range, repeat(min_value))),
            repeat(self._log_growth),
        ))
        buckets = self._buckets
        for idx, n in Counter(indices).items():
            buckets[idx] = buckets.get(idx, 0) + n
        self.count += len(values)
        self.total = total
        self.min_seen = min(self.min_seen, low)
        self.max_seen = max(self.max_seen, max(values))

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """``[lower, upper)`` value bounds of bucket ``index``."""
        lower = self.min_value * self.growth ** index
        return lower, lower * self.growth

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (0–100).

        Returns the geometric midpoint of the bucket holding the
        rank-``q`` observation, so the true sample percentile lies
        within one bucket width (a ``growth``-factor relative band).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self.count:
            return 0.0
        # Rank of the q-th percentile observation (nearest-rank method).
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        seen += self.underflow
        if rank <= seen:
            return self.min_value / 2.0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if rank <= seen:
                lower, upper = self.bucket_bounds(idx)
                return math.sqrt(lower * upper)
        return self.max_seen

    def percentiles(self, qs: Iterable[float] = (50, 95, 99)) -> dict[float, float]:
        return {q: self.percentile(q) for q in qs}

    # -- combination -------------------------------------------------------

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into this histogram (same bucketing required)."""
        if (other.min_value != self.min_value
                or other.growth != self.growth):
            raise ValueError("cannot merge histograms with different "
                             "bucketing parameters")
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        self.underflow += other.underflow
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse: :meth:`from_dict`)."""
        return {
            "min_value": self.min_value,
            "growth": self.growth,
            "count": self.count,
            "total": self.total,
            "zeros": self.zeros,
            "underflow": self.underflow,
            "min_seen": self.min_seen if self.count else None,
            "max_seen": self.max_seen,
            "buckets": {str(k): v
                        for k, v in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "StreamingHistogram":
        hist = cls(min_value=d["min_value"], growth=d["growth"])
        hist.count = d["count"]
        hist.total = d["total"]
        hist.zeros = d["zeros"]
        hist.underflow = d["underflow"]
        hist.min_seen = (d["min_seen"] if d.get("min_seen") is not None
                         else math.inf)
        hist.max_seen = d["max_seen"]
        hist._buckets = {int(k): v for k, v in d["buckets"].items()}
        return hist

    def copy(self) -> "StreamingHistogram":
        return StreamingHistogram.from_dict(self.to_dict())

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingHistogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __getstate__(self) -> dict:
        return self.to_dict()

    def __setstate__(self, state: dict) -> None:
        self.__init__(min_value=state["min_value"], growth=state["growth"])
        restored = StreamingHistogram.from_dict(state)
        for slot in ("count", "total", "zeros", "underflow",
                     "min_seen", "max_seen", "_buckets"):
            setattr(self, slot, getattr(restored, slot))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StreamingHistogram(count={self.count}, "
                f"mean={self.mean:.6g}, buckets={len(self._buckets)})")

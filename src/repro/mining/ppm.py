"""Prediction-by-Partial-Match (PPM) next-page predictor.

The related-work comparator (§2.2.3, [26]): a j-order Markov predictor
that keeps counts for *every* observed context of length 1..j — unlike
the dependency graph it does not restrict storage to directly-linked
page relations, which is exactly the memory overhead the paper calls
"the bottleneck of the scheme".  Selectable as the prefetch
predictor's navigation model (``predictor_kind="ppm"``), so its table
size can be compared against the dependency graph's.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .depgraph import Prediction

__all__ = ["PPMPredictor"]


class PPMPredictor:
    """j-order Markov predictor with longest-match fallback.

    Prediction walks from the longest context suffix down to order 1 and
    answers from the first context with data, blending lower orders with
    a simple escape weight (à la PPM-C) when ``blend=True``.
    """

    def __init__(self, order: int = 3, *, blend: bool = False) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.blend = blend
        self._counts: dict[tuple[str, ...], Counter[str]] = {}
        self._trained_sequences = 0

    # -- training ----------------------------------------------------------

    def add_sequence(self, pages: Sequence[str]) -> None:
        pages = list(pages)
        for i in range(1, len(pages)):
            nxt = pages[i]
            for ctx_len in range(1, min(self.order, i) + 1):
                ctx = tuple(pages[i - ctx_len:i])
                self._counts.setdefault(ctx, Counter())[nxt] += 1
        self._trained_sequences += 1

    def train(self, sequences: Iterable[Sequence[str]]) -> "PPMPredictor":
        for seq in sequences:
            self.add_sequence(seq)
        return self

    def record_transition(self, prev: str, nxt: str) -> None:
        """Online update of one observed transition (order-1 context),
        so the predictor can back a live
        :class:`~repro.mining.prefetch.PrefetchPredictor`."""
        self._counts.setdefault((prev,), Counter())[nxt] += 1

    def copy(self) -> "PPMPredictor":
        """An independent copy (see :meth:`DependencyGraph.copy`)."""
        dup = PPMPredictor(self.order, blend=self.blend)
        dup._counts = {ctx: Counter(c) for ctx, c in self._counts.items()}
        dup._trained_sequences = self._trained_sequences
        return dup

    # -- queries -----------------------------------------------------------

    @property
    def num_contexts(self) -> int:
        return len(self._counts)

    def memory_cells(self) -> int:
        """Stored (context, successor) pairs — comparable to the DG's."""
        return sum(len(c) for c in self._counts.values())

    def _scores(self, context: Sequence[str]) -> tuple[dict[str, float], int]:
        ctx = list(context)[-self.order:]
        if not self.blend:
            for ctx_len in range(len(ctx), 0, -1):
                counter = self._counts.get(tuple(ctx[-ctx_len:]))
                if counter:
                    total = sum(counter.values())
                    return {p: n / total for p, n in counter.items()}, ctx_len
            return {}, 0
        # Blended: weight order k by 2^k so longer matches dominate but
        # lower orders still vote (escape-style mixing).
        scores: dict[str, float] = {}
        matched = 0
        total_weight = 0.0
        for ctx_len in range(1, len(ctx) + 1):
            counter = self._counts.get(tuple(ctx[-ctx_len:]))
            if not counter:
                continue
            matched = max(matched, ctx_len)
            weight = 2.0 ** ctx_len
            total_weight += weight
            total = sum(counter.values())
            for p, n in counter.items():
                scores[p] = scores.get(p, 0.0) + weight * n / total
        if not scores:
            return {}, 0
        return {p: s / total_weight for p, s in scores.items()}, matched

    def candidates(
        self, context: Sequence[str]
    ) -> tuple[dict[str, float], int]:
        """Successor scores and matched context length (API-compatible
        with :meth:`DependencyGraph.candidates`)."""
        return self._scores(context)

    def predict(self, context: Sequence[str]) -> Prediction | None:
        scores, matched = self._scores(context)
        if not scores:
            return None
        page = max(scores, key=lambda p: (scores[p], p))
        return Prediction(page=page, confidence=scores[page],
                          context_length=matched)

"""Runtime prefetch selection — Algorithm 2 (``get_prefetch_page``).

For every incoming request the predictor

1. updates the per-connection access sequence and the online hit
   statistics of the matched candidate path,
2. asks the dependency graph for the most likely next page given the
   sequence, and
3. returns a prefetch decision when that page's confidence — the
   paper's ``picked_value / Accessed_Num[requested_page]`` ratio —
   exceeds the threshold.

The predictor also keeps accuracy bookkeeping (did the predicted page
actually arrive next on the same connection?) used by the evaluation
benches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

from .depgraph import DependencyGraph, Prediction

__all__ = ["PrefetchDecision", "PrefetchStats", "PrefetchPredictor"]


@dataclass(frozen=True, slots=True)
class PrefetchDecision:
    """What to prefetch, and why."""

    page: str
    confidence: float
    context: tuple[str, ...]


@dataclass(slots=True)
class PrefetchStats:
    """Prediction bookkeeping (for reporting and benches)."""

    observed: int = 0
    predictions: int = 0
    correct: int = 0
    wasted: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of issued predictions whose page arrived next."""
        settled = self.correct + self.wasted
        return self.correct / settled if settled else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of observed requests that triggered a prediction."""
        return self.predictions / self.observed if self.observed else 0.0


class PrefetchPredictor:
    """Per-connection next-page prediction over a dependency graph.

    Parameters
    ----------
    graph:
        A trained navigation model — the paper's
        :class:`DependencyGraph`, or any object with the same
        ``order``/``predict``/``record_transition`` surface (e.g.
        :class:`~repro.mining.ppm.PPMPredictor`).
    threshold:
        Minimum confidence for issuing a prefetch (Algorithm 2's
        ``Threshold``).
    online_update:
        When True, observed transitions are folded back into the graph —
        the paper's dynamic complement to offline mining.
    top_k:
        How many above-threshold successors :meth:`observe_many` emits
        per page view (the paper prefetches one; aggressive deployments
        prefetch the top few).
    """

    def __init__(
        self,
        graph: DependencyGraph,
        *,
        threshold: float = 0.35,
        online_update: bool = True,
        top_k: int = 1,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.graph = graph
        self.threshold = threshold
        self.online_update = online_update
        self.top_k = top_k
        self._sequences: dict[int, Deque[str]] = {}
        self._pending: dict[int, set[str]] = {}
        # Duck-typed predictors (PPM) expose only the normalised
        # ``candidates`` surface; the raw-counts fast path is optional.
        self._candidate_counts = getattr(graph, "candidate_counts", None)
        #: matched context -> (its total, its above-threshold successors
        #: as ``(confidence, page)``, most confident first, ties by page).
        #: A context's counter changes only together with its total and
        #: the threshold is fixed, so an entry stays valid while the
        #: total it was built at is current.
        self._ranked: dict[
            tuple[str, ...], tuple[int, list[tuple[float, str]]]
        ] = {}
        self.stats = PrefetchStats()

    def observe(self, conn_id: int, page: str) -> PrefetchDecision | None:
        """Register a main-page request; maybe return a prefetch decision.

        Embedded-object requests must not be passed here — bundles are
        handled by :class:`~repro.mining.bundles.BundleTable`; this
        predictor models page-to-page navigation only.
        """
        decisions = self.observe_many(conn_id, page, k=1)
        return decisions[0] if decisions else None

    def observe_many(
        self, conn_id: int, page: str, k: int | None = None
    ) -> list[PrefetchDecision]:
        """Like :meth:`observe`, emitting up to ``k`` (default
        ``top_k``) above-threshold successors, most confident first."""
        k = self.top_k if k is None else k
        if k < 1:
            raise ValueError("k must be >= 1")
        self.stats.observed += 1
        seq = self._sequences.get(conn_id)
        if seq is None:
            seq = deque(maxlen=self.graph.order)
            self._sequences[conn_id] = seq

        # Settle the previous page view's predictions.
        pending = self._pending.pop(conn_id, None)
        if pending:
            if page in pending:
                self.stats.correct += 1
                self.stats.wasted += len(pending) - 1
            else:
                self.stats.wasted += len(pending)

        if seq and self.online_update:
            self.graph.record_transition(seq[-1], page)
        seq.append(page)

        threshold = self.threshold
        if self._candidate_counts is not None:
            key, counter, total = self._candidate_counts(seq)
            if counter is None:
                return []
            entry = self._ranked.get(key)
            if entry is None or entry[0] != total:
                # ``n / total`` here is the same division candidates()
                # performs when normalising, so the confidences are
                # bit-identical.
                entry = self._ranked[key] = (total, sorted(
                    ((n / total, p) for p, n in counter.items()
                     if n / total > threshold),
                    key=lambda e: (-e[0], e[1]),
                ))
            picked = [e for e in entry[1] if e[1] != page][:k]
        else:
            scores, _ = self.graph.candidates(seq)
            picked = sorted(
                ((conf, p) for p, conf in scores.items()
                 if p != page and conf > threshold),
                key=lambda e: (-e[0], e[1]),
            )[:k]
        if not picked:
            return []
        self.stats.predictions += len(picked)
        self._pending[conn_id] = {p for _, p in picked}
        context = tuple(seq)
        return [
            PrefetchDecision(page=p, confidence=conf, context=context)
            for conf, p in picked
        ]

    def close(self, conn_id: int) -> None:
        """Drop per-connection state when the connection ends.

        Unsettled predictions on a closing connection count as wasted
        work — the prefetched pages were never requested.
        """
        self._sequences.pop(conn_id, None)
        pending = self._pending.pop(conn_id, None)
        if pending:
            self.stats.wasted += len(pending)

    @property
    def open_connections(self) -> int:
        return len(self._sequences)

"""n-order dependency graphs and candidate navigation paths (§4.1.1).

Each node is a web page; each edge carries the confidence of the
*continuing sequence* of the user navigation pattern (paper Fig. 3): for
a context — the last up-to-``order`` pages a user visited along direct
links — the graph stores how often each directly-linked successor page
followed.

The paper's memory-constraint rule is honoured: "we propose to store
relations between pages only when one page is directly linked to other
pages".  Direct links are induced from the logs (consecutive page pairs
within a session), and only contexts that are themselves link-paths are
stored, so the table grows with the traversed link structure instead of
with all :math:`l^{n+1}` page combinations.

:func:`DependencyGraph.candidate_paths` implements Algorithm 1
(``make_candidate_path``); the runtime half (Algorithm 2) lives in
:mod:`repro.mining.prefetch`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Prediction", "DependencyGraph"]


@dataclass(frozen=True, slots=True)
class Prediction:
    """A next-page prediction.

    Attributes
    ----------
    page:
        Predicted next page.
    confidence:
        Fraction of training sequences that continued from the matched
        context to ``page`` (the paper's edge confidence).
    context_length:
        Number of trailing pages actually matched — longer matches mean
        better-grounded confidence (§4.1, citing [18]).
    """

    page: str
    confidence: float
    context_length: int


class DependencyGraph:
    """An n-order dependency graph mined from page navigation sequences.

    Parameters
    ----------
    order:
        Maximum context length (the paper illustrates order 2).
    """

    def __init__(self, order: int = 2) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        #: direct links observed in the logs: page -> successor pages
        self._links: dict[str, set[str]] = {}
        #: context (1..order trailing pages) -> Counter of next page
        self._counts: dict[tuple[str, ...], Counter[str]] = {}
        #: context -> running total of its counter (kept alongside the
        #: Counter so the per-request candidate query skips the
        #: ``sum(counter.values())`` pass; integer sums, so the values
        #: are exact either way)
        self._totals: dict[tuple[str, ...], int] = {}
        self._trained_sequences = 0

    # -- training ----------------------------------------------------------

    def add_sequence(self, pages: Sequence[str]) -> None:
        """Fold one session's main-page sequence into the graph."""
        pages = list(pages)
        for a, b in zip(pages, pages[1:]):
            if a != b:
                self._links.setdefault(a, set()).add(b)
        totals = self._totals
        for i in range(1, len(pages)):
            nxt = pages[i]
            max_ctx = min(self.order, i)
            for ctx_len in range(1, max_ctx + 1):
                ctx = tuple(pages[i - ctx_len:i])
                self._counts.setdefault(ctx, Counter())[nxt] += 1
                totals[ctx] = totals.get(ctx, 0) + 1
        self._trained_sequences += 1

    def train(self, sequences: Iterable[Sequence[str]]) -> "DependencyGraph":
        """Train on many sequences; returns self for chaining."""
        for seq in sequences:
            self.add_sequence(seq)
        return self

    def record_transition(self, prev: str, nxt: str) -> None:
        """Online update of a single observed transition (dynamic mining)."""
        if prev != nxt:
            links = self._links.get(prev)
            if links is None:
                links = self._links[prev] = set()
            links.add(nxt)
        key = (prev,)
        counter = self._counts.get(key)
        if counter is None:
            counter = self._counts[key] = Counter()
        counter[nxt] += 1
        self._totals[key] = self._totals.get(key, 0) + 1

    def copy(self) -> "DependencyGraph":
        """An independent copy: updates to either graph leave the other
        untouched.  Copies container by container, keeping every
        iteration order."""
        dup = DependencyGraph(self.order)
        dup._links = {page: set(succ) for page, succ in self._links.items()}
        dup._counts = {ctx: Counter(c) for ctx, c in self._counts.items()}
        dup._totals = dict(self._totals)
        dup._trained_sequences = self._trained_sequences
        return dup

    # -- queries -----------------------------------------------------------

    @property
    def num_pages(self) -> int:
        pages = set(self._links)
        for targets in self._links.values():
            pages.update(targets)
        return len(pages)

    @property
    def num_contexts(self) -> int:
        return len(self._counts)

    @property
    def trained_sequences(self) -> int:
        return self._trained_sequences

    def candidates(
        self, context: Sequence[str]
    ) -> tuple[dict[str, float], int]:
        """Successor confidences for the longest matching context suffix.

        Returns ``(mapping, matched_length)``; the mapping is empty when
        no suffix of ``context`` has been observed.  Confidence of page
        ``p`` is ``count(context -> p) / count(context -> anything)``.
        """
        key, counter, total = self.candidate_counts(context)
        if counter is None:
            return {}, 0
        return {page: n / total for page, n in counter.items()}, len(key)

    def candidate_counts(
        self, context: Sequence[str]
    ) -> tuple[tuple[str, ...], Counter[str] | None, int]:
        """Raw form of :meth:`candidates`: ``(key, counter, total)``.

        ``key`` is the matched context suffix (``()`` with a ``None``
        counter when nothing matches).  The hot prefetch path divides
        only the entries it keeps, so it asks for the counts instead of
        a fully normalised mapping (``n / total`` on demand gives the
        same floats).  The returned counter is the live one — callers
        must not mutate it.  Every update to a context's counter also
        bumps its total, so ``(key, total)`` identifies the counter's
        contents and callers may memoise on it.
        """
        ctx = tuple(context)[-self.order:]
        counts = self._counts
        for start in range(len(ctx)):  # longest suffix first
            key = ctx[start:]
            counter = counts.get(key)
            if counter:
                return key, counter, self._totals[key]
        return (), None, 0

    def predict(self, context: Sequence[str]) -> Prediction | None:
        """Most confident next page for ``context``, or None if unseen."""
        cands, matched = self.candidates(context)
        if not cands:
            return None
        # Deterministic tie-break on path name.
        page = max(cands, key=lambda p: (cands[p], p))
        return Prediction(page=page, confidence=cands[page],
                          context_length=matched)

    # -- Algorithm 1: candidate paths ---------------------------------------

    def candidate_paths(
        self,
        page: str,
        order: int | None = None,
        *,
        max_paths: int = 10_000,
    ) -> list[tuple[str, ...]]:
        """All link-following paths from ``page`` up to ``order`` hops.

        This is Algorithm 1 (``make_candidate_path``): starting from the
        page itself, follow direct links, extending the path until the
        order is exhausted.  Paths of every length from 1 (the page
        alone) up to ``order + 1`` pages are returned; enumeration stops
        at ``max_paths`` to bound memory, mirroring the paper's concern
        about exponential growth.
        """
        hops = self.order if order is None else order
        if hops < 0:
            raise ValueError("order must be >= 0")
        out: list[tuple[str, ...]] = []

        def walk(path: tuple[str, ...], remaining: int) -> None:
            if len(out) >= max_paths:
                return
            out.append(path)
            if remaining == 0:
                return
            for nxt in sorted(self._links.get(path[-1], ())):
                if nxt in path:
                    continue  # keep paths simple; loops add no prefetch value
                walk(path + (nxt,), remaining - 1)

        walk((page,), hops)
        return out

    def memory_cells(self) -> int:
        """Stored (context, successor) pairs — the table's resident size.

        Used by the ablation benches to show the direct-link restriction
        keeps growth far below the :math:`l^{n+1}` worst case.
        """
        return sum(len(c) for c in self._counts.values())

    def edge_confidences(self, page: str) -> dict[str, float]:
        """First-order edge confidences out of ``page`` (Fig. 3 view)."""
        cands, _ = self.candidates([page])
        return cands

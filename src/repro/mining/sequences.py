"""Sequential-pattern mining for next-page prediction.

The second classic web-usage-mining family the paper surveys (§2.2.3,
[25, 27]): order matters.  We mine frequent *contiguous* navigation
n-grams above a support threshold and derive rules ``prefix → next``.
Prediction matches the longest mined prefix against the tail of the
user's path — the formulation [21] found to outperform association
rules for next-request prediction, which our comparator bench checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .depgraph import Prediction

__all__ = ["SequenceRule", "SequenceMiner", "SequencePredictor"]


@dataclass(frozen=True, slots=True)
class SequenceRule:
    """``prefix → next`` with support (count) and confidence."""

    prefix: tuple[str, ...]
    next: str
    support: int
    confidence: float


class SequenceMiner:
    """Mines frequent contiguous n-grams from navigation sequences.

    Parameters
    ----------
    max_length:
        Longest n-gram considered (rule prefixes are one shorter).
    min_support:
        Minimum absolute occurrence count for an n-gram to be frequent.
    """

    def __init__(self, *, max_length: int = 4, min_support: int = 2) -> None:
        if max_length < 2:
            raise ValueError("max_length must be >= 2")
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        self.max_length = max_length
        self.min_support = min_support

    def ngram_counts(
        self, sequences: Iterable[Sequence[str]]
    ) -> Counter[tuple[str, ...]]:
        """Occurrence counts of all n-grams up to ``max_length``."""
        counts: Counter[tuple[str, ...]] = Counter()
        for seq in sequences:
            seq = list(seq)
            n = len(seq)
            for length in range(1, min(self.max_length, n) + 1):
                for i in range(n - length + 1):
                    counts[tuple(seq[i:i + length])] += 1
        return counts

    def rules(self, sequences: Sequence[Sequence[str]]) -> list[SequenceRule]:
        """Frequent-n-gram rules sorted by confidence then support."""
        counts = self.ngram_counts(sequences)
        rules: list[SequenceRule] = []
        for gram, count in counts.items():
            if len(gram) < 2 or count < self.min_support:
                continue
            prefix = gram[:-1]
            prefix_count = counts[prefix]
            rules.append(SequenceRule(
                prefix=prefix,
                next=gram[-1],
                support=count,
                confidence=count / prefix_count,
            ))
        rules.sort(key=lambda r: (-r.confidence, -r.support, r.prefix, r.next))
        return rules


class SequencePredictor:
    """Longest-suffix prediction over mined sequence rules."""

    def __init__(self, miner: SequenceMiner | None = None) -> None:
        self.miner = miner or SequenceMiner()
        #: prefix -> best (confidence, support, next)
        self._by_prefix: dict[tuple[str, ...], SequenceRule] = {}

    def train(self, sequences: Sequence[Sequence[str]]) -> "SequencePredictor":
        self._by_prefix = {}
        for rule in self.miner.rules(sequences):
            # Rules arrive best-first; keep the first rule per prefix.
            self._by_prefix.setdefault(rule.prefix, rule)
        return self

    @property
    def num_rules(self) -> int:
        return len(self._by_prefix)

    def predict(self, context: Sequence[str]) -> Prediction | None:
        ctx = tuple(context)
        max_prefix = self.miner.max_length - 1
        for length in range(min(len(ctx), max_prefix), 0, -1):
            rule = self._by_prefix.get(ctx[-length:])
            if rule is not None:
                return Prediction(
                    page=rule.next,
                    confidence=rule.confidence,
                    context_length=length,
                )
        return None

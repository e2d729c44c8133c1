"""Popularity mining: rank tables from offline logs + online tracking.

The paper ranks web pages by request counts "two-fold": offline analysis
of historical logs and "dynamic online tracking of the page hits to
obtain the realistic estimate" (§3.2).  :class:`RankTable` is the offline
artifact; :class:`PopularityTracker` merges it with an exponentially
decayed online counter so recent traffic shifts re-rank files, which is
what drives the replication engine (Algorithm 3).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

from ..logs.records import LogRecord

__all__ = ["RankTable", "PopularityTracker"]


class RankTable:
    """Immutable ranking of paths by hit count.

    ``rank(path)`` returns a score in ``(0, 1]`` — the path's hit count
    normalised by the maximum hit count — so Algorithm 3's thresholds
    (``T1``, fractions of ``T1``) can be expressed scale-free.
    Unknown paths rank 0.
    """

    def __init__(self, counts: Mapping[str, int]) -> None:
        self._counts: dict[str, int] = {
            p: int(c) for p, c in counts.items() if c > 0
        }
        self._max = max(self._counts.values(), default=0)

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> "RankTable":
        """Count hits per path over successful log entries."""
        counts: Counter[str] = Counter(
            r.path for r in records if r.is_success()
        )
        return cls(counts)

    @classmethod
    def from_paths(cls, paths: Iterable[str]) -> "RankTable":
        return cls(Counter(paths))

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, path: str) -> bool:
        return path in self._counts

    def count(self, path: str) -> int:
        return self._counts.get(path, 0)

    def rank(self, path: str) -> float:
        """Normalised popularity in [0, 1] (1 = most-hit path)."""
        if self._max == 0:
            return 0.0
        return self._counts.get(path, 0) / self._max

    def top(self, n: int) -> list[tuple[str, int]]:
        """The ``n`` most popular (path, count) pairs, ties by path."""
        return sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    def items(self) -> list[tuple[str, int]]:
        return list(self._counts.items())

    def merged_with(self, other: "RankTable", weight: float = 1.0) -> "RankTable":
        """A new table adding ``other``'s counts scaled by ``weight``."""
        merged: Counter[str] = Counter(self._counts)
        for p, c in other._counts.items():
            merged[p] += int(round(c * weight))
        return RankTable(merged)


class PopularityTracker:
    """Online popularity with exponential decay over an offline prior.

    Hit counts decay with half-life ``half_life`` seconds, so files that
    *were* hot but cooled off sink in the ranking — the "recent history"
    dynamic log mining of Algorithm 3.  The offline :class:`RankTable`
    seeds the counts (scaled by ``prior_weight``) so the tracker is
    useful from the first request.

    Scores are kept relative to a reference time ``epoch``: a hit at
    ``now`` adds ``w = exp(λ·(now − epoch))`` to its path, so a score
    divided by the current ``w`` is the decayed count at the last update
    time.  Recording a hit is O(1) in the catalogue size: nothing sweeps
    the scores per hit.  Once ``w`` passes 2**64 every score is scaled
    down to the current time and ``epoch`` moves there, so scores stay
    far from overflow.  Scores agree with a step-by-step decay to within
    rounding, not bit for bit.
    """

    #: Scores are re-based once ``w`` passes 2**64, i.e. every 64
    #: half-lives.  The check compares exponents, ``log(w)`` against
    #: ``log(2**64)``, so one long jump in time cannot overflow ``exp``.
    _REBASE_EXPONENT = 64 * math.log(2.0)

    def __init__(
        self,
        prior: RankTable | None = None,
        *,
        half_life: float = 60.0,
        prior_weight: float = 1.0,
    ) -> None:
        if not 0 < half_life < math.inf:
            raise ValueError(
                f"half_life must be positive and finite, got {half_life}"
            )
        self.half_life = half_life
        self._lambda = math.log(2.0) / half_life
        #: path -> slot in ``_scores``, insertion-ordered
        self._index: dict[str, int] = {}
        #: per-slot score, relative to ``_epoch``
        self._scores: list[float] = []
        self._epoch = 0.0
        #: time of the last update, and the hit weight at that time
        self._now = 0.0
        self._w = 1.0
        if prior is not None and len(prior) > 0:
            top_count = prior.top(1)[0][1]
            for path, count in prior.items():
                self._index[path] = len(self._scores)
                self._scores.append(prior_weight * count / top_count)

    def __len__(self) -> int:
        return len(self._index)

    def record(self, path: str, now: float) -> None:
        """Register one hit on ``path`` at simulation time ``now``."""
        if now != self._now:
            # Written so NaN fails too: every comparison with NaN is false.
            if not self._now < now < math.inf:
                raise ValueError(
                    f"time must be finite and must not run backwards: "
                    f"{now} after {self._now}"
                )
            self._now = now
            x = self._lambda * (now - self._epoch)
            if x > self._REBASE_EXPONENT:
                decay = math.exp(-x)
                self._scores = [s * decay for s in self._scores]
                self._epoch = now
                x = 0.0
            self._w = math.exp(x)
        idx = self._index.get(path)
        if idx is None:
            self._index[path] = len(self._scores)
            self._scores.append(self._w)
        else:
            self._scores[idx] += self._w

    def rank(self, path: str) -> float:
        """Normalised popularity in [0, 1] at the last update time."""
        idx = self._index.get(path)
        if idx is None:
            return 0.0
        peak = max(self._scores)
        if peak <= 0:
            return 0.0
        return self._scores[idx] / peak

    def snapshot(self) -> RankTable:
        """Freeze current scores into a :class:`RankTable` (scaled ints)."""
        scores = self._scores
        if not scores:
            return RankTable({})
        scale = 1_000_000 / max(scores)
        return RankTable({
            p: max(1, int(scores[i] * scale))
            for p, i in self._index.items() if scores[i] > 0
        })

    def top(self, n: int) -> list[tuple[str, float]]:
        """The ``n`` highest (path, decayed score) pairs, ties by path."""
        w = self._w
        scores = self._scores
        return sorted(
            ((p, scores[i] / w) for p, i in self._index.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )[:n]


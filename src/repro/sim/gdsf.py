"""GDSF cache replacement (Greedy-Dual-Size-Frequency, Cherkasova [30]).

Each resident file gets priority ``L + frequency * cost / size`` —
small, popular, expensive-to-fetch files survive; the aging term ``L``
(the priority of the last eviction) keeps stale popularity from pinning
files forever.  :class:`GDSFCache` implements the same interface as
:class:`~repro.sim.cache.LRUCache`, so a backend server can run either
(see ``SimulationParams.cache_policy``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

__all__ = ["GDSFCache", "make_cache"]


@dataclass(slots=True)
class _Entry:
    size: int
    frequency: float
    priority: float
    pinned: bool = False


class GDSFCache:
    """Greedy-Dual-Size-Frequency replacement with byte capacity.

    API-compatible with :class:`~repro.sim.cache.LRUCache` (access /
    insert / evict / pin / peek / callbacks), so it can be dropped into
    the backend server unchanged.
    """

    def __init__(
        self,
        capacity_bytes: int,
        *,
        on_insert: Callable[[str], None] | None = None,
        on_evict: Callable[[str], None] | None = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._entries: dict[str, _Entry] = {}
        self._resident = 0
        self._pinned_bytes = 0
        #: the GDSF aging term: priority of the most recent eviction
        self._L = 0.0
        # victim heap of (priority, seq, path); lazily invalidated.
        self._heap: list[tuple[float, int, str]] = []
        self._seq = itertools.count()
        self.on_insert = on_insert
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- GDSF scoring ---------------------------------------------------------

    def _score(self, entry: _Entry) -> float:
        # cost/size with unit cost: classic GDSF favours small files.
        return self._L + entry.frequency / max(entry.size, 1) * 1024.0

    def _push(self, path: str) -> None:
        entry = self._entries[path]
        entry.priority = self._score(entry)
        heapq.heappush(self._heap, (entry.priority, next(self._seq), path))

    # -- queries ----------------------------------------------------------------

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._resident

    @property
    def pinned_bytes(self) -> int:
        return self._pinned_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def peek(self, path: str) -> bool:
        return path in self._entries

    # -- operations --------------------------------------------------------------

    def access(self, path: str) -> bool:
        entry = self._entries.get(path)
        if entry is None:
            self.misses += 1
            return False
        self.hits += 1
        entry.frequency += 1.0
        self._push(path)
        return True

    def insert(self, path: str, size: int, *, pinned: bool = False) -> list[str]:
        if size <= 0:
            raise ValueError("size must be positive")
        existing = self._entries.get(path)
        if existing is not None:
            if existing.size != size:
                raise ValueError(
                    f"size mismatch for {path!r}: {existing.size} != {size}"
                )
            if pinned != existing.pinned:
                self._pinned_bytes += size if pinned else -size
                existing.pinned = pinned
            existing.frequency += 1.0
            self._push(path)
            return []
        if size > self.capacity_bytes - self._pinned_bytes:
            return []
        evicted: list[str] = []
        while self._resident + size > self.capacity_bytes:
            victim = self._pop_victim()
            if victim is None:
                return evicted
            self._remove(victim)
            evicted.append(victim)
            self.evictions += 1
            if self.on_evict:
                self.on_evict(victim)
        self._entries[path] = _Entry(size=size, frequency=1.0, priority=0.0,
                                     pinned=pinned)
        self._resident += size
        if pinned:
            self._pinned_bytes += size
        self._push(path)
        if self.on_insert:
            self.on_insert(path)
        return evicted

    def _pop_victim(self) -> str | None:
        while self._heap:
            priority, _, path = heapq.heappop(self._heap)
            entry = self._entries.get(path)
            if entry is None or entry.pinned:
                continue
            if entry.priority != priority:
                continue  # stale heap record; a fresher one exists
            # GDSF aging: remember the evicted priority.
            self._L = priority
            return path
        return None

    def _remove(self, path: str) -> None:
        entry = self._entries.pop(path)
        self._resident -= entry.size
        if entry.pinned:
            self._pinned_bytes -= entry.size

    def evict(self, path: str) -> bool:
        if path not in self._entries:
            return False
        self._remove(path)
        self.evictions += 1
        if self.on_evict:
            self.on_evict(path)
        return True

    def pin(self, path: str) -> bool:
        entry = self._entries.get(path)
        if entry is None:
            return False
        if not entry.pinned:
            entry.pinned = True
            self._pinned_bytes += entry.size
        return True

    def unpin(self, path: str) -> bool:
        entry = self._entries.get(path)
        if entry is None:
            return False
        if entry.pinned:
            entry.pinned = False
            self._pinned_bytes -= entry.size
        return True

    def unpin_all(self) -> int:
        n = 0
        for entry in self._entries.values():
            if entry.pinned:
                entry.pinned = False
                n += 1
        self._pinned_bytes = 0
        return n

    def contents(self) -> list[str]:
        """Resident paths, lowest GDSF priority (next victim) first."""
        return sorted(self._entries,
                      key=lambda p: (self._entries[p].priority, p))


def make_cache(
    policy: str,
    capacity_bytes: int,
    *,
    on_insert: Callable[[str], None] | None = None,
    on_evict: Callable[[str], None] | None = None,
):
    """Build a cache by policy name: ``lru`` / ``gdsf``."""
    if policy == "lru":
        from .cache import LRUCache
        return LRUCache(capacity_bytes, on_insert=on_insert,
                        on_evict=on_evict)
    if policy == "gdsf":
        return GDSFCache(capacity_bytes, on_insert=on_insert,
                         on_evict=on_evict)
    raise ValueError(f"unknown cache policy {policy!r}; known: lru, gdsf")

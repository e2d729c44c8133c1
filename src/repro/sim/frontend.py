"""Front-end components: the dispatcher's locality table and the
distributor's connection bookkeeping.

In the paper's architecture (Fig. 1) the *distributor* forwards requests
and the *dispatcher* answers "which backend holds this file in memory?".
Contacting the dispatcher is the event Fig. 6 counts; PRORD's point is
that most requests can skip it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Dispatcher", "ConnectionState"]


class Dispatcher:
    """Locality table: path → set of backend servers holding it in memory.

    Kept exact by cache insert/evict callbacks, as LARD's dispatcher
    maintains its target→server-set mapping.  ``lookup`` counts queries;
    mutation helpers are free (they model asynchronous notifications).
    """

    def __init__(self) -> None:
        self._holders: dict[str, set[int]] = {}
        self.lookups = 0

    def on_insert(self, server_id: int, path: str) -> None:
        self._holders.setdefault(path, set()).add(server_id)

    def on_evict(self, server_id: int, path: str) -> None:
        holders = self._holders.get(path)
        if holders is not None:
            holders.discard(server_id)
            if not holders:
                del self._holders[path]

    def lookup(self, path: str) -> frozenset[int]:
        """Query the table (counted — this is a 'dispatch')."""
        self.lookups += 1
        return frozenset(self._holders.get(path, ()))

    def peek(self, path: str) -> frozenset[int]:
        """Uncounted read, for distributor-local state the front end
        already tracks (prefetch/already-distributed checks in Fig. 4)."""
        return frozenset(self._holders.get(path, ()))

    def holds(self, path: str, server_id: int) -> bool:
        """Uncounted membership test (``server_id in peek(path)`` without
        the per-call set copy — the Fig. 4 step-3a residency check runs
        once per non-embedded request)."""
        holders = self._holders.get(path)
        return holders is not None and server_id in holders

    def holder_count(self, path: str) -> int:
        return len(self._holders.get(path, ()))

    def tracked_paths(self) -> int:
        return len(self._holders)


@dataclass(slots=True)
class ConnectionState:
    """Distributor-side state of one persistent connection."""

    conn_id: int
    server_id: int | None = None
    requests_seen: int = 0

"""Struct-of-arrays storage for in-flight requests.

One :class:`FlowTable` per cluster holds every per-request field the
hot path touches as parallel arrays indexed by a small integer *slot*.
Calendar entries carry the slot index (the engine's ``arg`` channel)
instead of a per-request record, and every stage callback is one
long-lived bound method — so the steady-state demand path allocates no
objects at all: slots are recycled through a free list.

The table is shared between the cluster (front-end fields: the original
request, target server, post-frontend latency, injection callback) and
its backend servers (service fields: path, size, flags, precomputed
service times).  A standalone :class:`~repro.sim.server.BackendServer`
owns a private table.

Slot lifecycle: allocated at arrival (``alloc``), carried through the
frontend → deliver → CPU → cache/disk → transmit stages, and released
by the finish target (``release``), which clears object references so
a recycled slot never pins dead requests.

The arrival pump fills the ``tx_s``/``disk_s`` columns a chunk at a
time: :func:`service_time_arrays` prices a whole batch of sizes in one
call, bit-identical to the scalar ``SimulationParams`` methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..logs.records import Request
    from .cluster import CompletionCallback
    from .server import BackendServer

__all__ = ["FlowTable", "service_time_arrays"]

#: Slots added per growth step — large enough that growth is rare,
#: small enough that an idle cluster stays tiny.
_GROW = 256

#: Completion target stored per slot: ``finish(slot, server_id, hit)``.
FinishCallback = Callable[[int, int, bool], None]

_KB = 1024.0


def service_time_arrays(
    sizes: list[int],
    transmit_us_per_kb: float,
    disk_fixed_ms: float,
    disk_us_per_kb: float,
) -> tuple[list[float], list[float]]:
    """Batched ``(transmit_s, disk_service_s)`` lists for ``sizes`` (bytes).

    Operation order matches ``SimulationParams.transmit_s`` /
    ``disk_service_s`` exactly (scale factor first, then the per-element
    multiply, then the KB divide), so every element is bit-identical to
    the scalar path — the property that keeps batched pricing from
    changing any report.
    """
    tx_scale = transmit_us_per_kb * 1e-6
    disk_fixed = disk_fixed_ms * 1e-3
    disk_scale = disk_us_per_kb * 1e-6
    return ([tx_scale * size / _KB for size in sizes],
            [disk_fixed + disk_scale * size / _KB for size in sizes])


class FlowTable:
    """Parallel per-request state arrays plus a slot free list."""

    __slots__ = (
        "path", "size", "dynamic", "hit", "tx_s", "disk_s", "finish",
        "req", "server", "latency", "on_complete", "user_done", "free",
    )

    def __init__(self) -> None:
        # -- service fields (written by whoever allocates the slot) ----
        self.path: list[str | None] = []
        self.size: list[int] = []
        self.dynamic: list[bool] = []
        self.hit: list[bool] = []
        #: precomputed ``params.transmit_s(size)`` for the slot
        self.tx_s: list[float] = []
        #: precomputed ``params.disk_service_s(size)`` for the slot
        self.disk_s: list[float] = []
        #: completion target: ``finish(slot, server_id, hit)``
        self.finish: list[FinishCallback | None] = []
        # -- cluster fields (trace / injection path only) --------------
        self.req: list["Request | None"] = []
        self.server: list["BackendServer | None"] = []
        self.latency: list[float] = []
        self.on_complete: list["CompletionCallback | None"] = []
        # -- generic server.handle() path only -------------------------
        self.user_done: list[Callable[[int, bool], None] | None] = []
        #: recycled slot indices (LIFO — deterministic reuse order)
        self.free: list[int] = []

    def alloc(self) -> int:
        """Claim a slot (recycled when possible)."""
        free = self.free
        if free:
            return free.pop()
        return self._grow()

    def _grow(self) -> int:
        base = len(self.path)
        n = _GROW
        self.path.extend([None] * n)
        self.size.extend([0] * n)
        self.dynamic.extend([False] * n)
        self.hit.extend([False] * n)
        self.tx_s.extend([0.0] * n)
        self.disk_s.extend([0.0] * n)
        self.finish.extend([None] * n)
        self.req.extend([None] * n)
        self.server.extend([None] * n)
        self.latency.extend([0.0] * n)
        self.on_complete.extend([None] * n)
        self.user_done.extend([None] * n)
        # Hand out ``base`` now; queue the rest so pops come in
        # ascending slot order.
        self.free.extend(range(base + n - 1, base, -1))
        return base

    def release(self, slot: int) -> None:
        """Return a slot to the free list, dropping object references."""
        self.path[slot] = None
        self.finish[slot] = None
        self.req[slot] = None
        self.server[slot] = None
        self.on_complete[slot] = None
        self.user_done[slot] = None
        self.free.append(slot)

    @property
    def capacity(self) -> int:
        return len(self.path)

    @property
    def in_flight(self) -> int:
        """Slots currently live (capacity minus free)."""
        return len(self.path) - len(self.free)

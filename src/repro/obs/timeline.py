"""Time-series telemetry: fixed-width windows over a cluster run.

The paper's figures are end-of-run aggregates; this module records the
*when*: per-backend utilization, queue depth, cache occupancy and
hit-rate, and the Fig. 4 routing-path counters, sampled into fixed-width
windows as the simulation clock advances.  The recorder attaches to the
engine's pure-observation ``on_event`` hook (the same attachment point
the simulation auditor uses), so recording a timeline cannot perturb a
run.

Memory stays bounded on arbitrarily long runs by **window coalescing**:
when the window list reaches ``max_windows``, adjacent pairs are merged
(delta counters sum; end-of-window gauges take the later sample) and the
window width doubles — the classic bounded-resolution recorder.  All
per-window *delta* totals are exactly conserved across coalescing, which
the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sim.cluster import ClusterSimulator

__all__ = ["ServerWindow", "TimelineWindow", "Timeline", "TimelineRecorder"]


@dataclass(frozen=True, slots=True)
class ServerWindow:
    """One backend's telemetry over one window.

    ``*_busy_s``, ``cache_hits``/``cache_misses`` and ``completions``
    are per-window deltas; ``queue_depth``, ``active`` and
    ``cache_bytes`` are gauges sampled at the window's closing edge.
    """

    cpu_busy_s: float
    disk_busy_s: float
    queue_depth: int
    active: int
    cache_bytes: int
    cache_hits: int
    cache_misses: int
    completions: int

    def utilization(self, width: float) -> float:
        return self.cpu_busy_s / width if width > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def coalesce(self, later: "ServerWindow") -> "ServerWindow":
        return ServerWindow(
            cpu_busy_s=self.cpu_busy_s + later.cpu_busy_s,
            disk_busy_s=self.disk_busy_s + later.disk_busy_s,
            queue_depth=later.queue_depth,
            active=later.active,
            cache_bytes=later.cache_bytes,
            cache_hits=self.cache_hits + later.cache_hits,
            cache_misses=self.cache_misses + later.cache_misses,
            completions=self.completions + later.completions,
        )


@dataclass(frozen=True, slots=True)
class TimelineWindow:
    """Cluster-wide telemetry over ``[start, start + width)``."""

    start: float
    width: float
    events: int
    completions: int
    dispatches: int
    handoffs: int
    connections: int
    frontend_busy_s: float
    servers: tuple[ServerWindow, ...]
    #: Fig. 4 routing-path deltas (policies exposing ``flow_counts``),
    #: as sorted items so windows hash/pickle/compare cleanly.
    flows: tuple[tuple[str, int], ...] = ()

    @property
    def end(self) -> float:
        return self.start + self.width

    @property
    def frontend_utilization(self) -> float:
        return self.frontend_busy_s / self.width if self.width > 0 else 0.0

    def coalesce(self, later: "TimelineWindow") -> "TimelineWindow":
        """Merge with the adjacent *later* window (delta sums, later gauges)."""
        merged_flows = dict(self.flows)
        for key, value in later.flows:
            merged_flows[key] = merged_flows.get(key, 0) + value
        return TimelineWindow(
            start=self.start,
            width=self.width + later.width,
            events=self.events + later.events,
            completions=self.completions + later.completions,
            dispatches=self.dispatches + later.dispatches,
            handoffs=self.handoffs + later.handoffs,
            connections=self.connections + later.connections,
            frontend_busy_s=self.frontend_busy_s + later.frontend_busy_s,
            servers=tuple(
                a.coalesce(b) for a, b in zip(self.servers, later.servers)
            ),
            flows=tuple(sorted(merged_flows.items())),
        )


@dataclass(frozen=True, slots=True)
class Timeline:
    """An entire run's windows plus recording metadata (picklable)."""

    windows: tuple[TimelineWindow, ...]
    #: requested (initial) window width, before any coalescing
    base_window_s: float
    #: actual window width after coalescing (power-of-two multiple)
    window_s: float
    #: coalescing bound the recorder ran with
    max_windows: int
    n_servers: int
    coalesce_rounds: int

    def __len__(self) -> int:
        return len(self.windows)

    def series(self, field: str) -> list[float]:
        """Cluster-level per-window series (``completions``, ...)."""
        return [getattr(w, field) for w in self.windows]

    def server_series(self, server_id: int,
                      fn: Callable[[ServerWindow, float], float]) -> list[float]:
        """Per-window series for one backend via ``fn(sample, width)``."""
        return [fn(w.servers[server_id], w.width) for w in self.windows]

    def utilization_series(self, server_id: int) -> list[float]:
        return self.server_series(
            server_id, lambda s, width: s.utilization(width))

    def totals(self) -> dict[str, int]:
        """Whole-run delta totals (conserved across coalescing)."""
        return {
            "events": sum(w.events for w in self.windows),
            "completions": sum(w.completions for w in self.windows),
            "dispatches": sum(w.dispatches for w in self.windows),
            "handoffs": sum(w.handoffs for w in self.windows),
            "connections": sum(w.connections for w in self.windows),
        }


class _Cursor:
    """Last-sampled cumulative counters (deltas are taken against it)."""

    __slots__ = ("events", "completions", "dispatches", "handoffs",
                 "connections", "frontend_busy", "flows",
                 "cpu_busy", "disk_busy", "hits", "misses",
                 "server_completions")

    def __init__(self, n_servers: int) -> None:
        self.events = 0
        self.completions = 0
        self.dispatches = 0
        self.handoffs = 0
        self.connections = 0
        self.frontend_busy = 0.0
        self.flows: dict[str, int] = {}
        self.cpu_busy = [0.0] * n_servers
        self.disk_busy = [0.0] * n_servers
        self.hits = [0] * n_servers
        self.misses = [0] * n_servers
        self.server_completions = [0] * n_servers


class TimelineRecorder:
    """Samples one cluster run into bounded-memory windows.

    Attach via :meth:`attach` (normally done by
    :class:`~repro.obs.telemetry.Telemetry`); the recorder joins the
    engine's observers through
    :meth:`~repro.sim.engine.Simulator.observe`, so it coexists with the
    auditor in either attach order.

    Parameters
    ----------
    window_s:
        Initial window width in simulated seconds.
    max_windows:
        Coalescing bound (even, >= 2): the window list never grows past
        this; reaching it merges adjacent pairs and doubles the width.
    """

    def __init__(self, window_s: float, *, max_windows: int = 240) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_windows < 2 or max_windows % 2:
            raise ValueError("max_windows must be an even number >= 2")
        self.base_window_s = window_s
        self.window_s = window_s
        self.max_windows = max_windows
        self.coalesce_rounds = 0
        self.cluster: "ClusterSimulator | None" = None
        self._windows: list[TimelineWindow] = []
        self._cursor: _Cursor | None = None
        self._window_start = 0.0
        self._window_completions = 0
        self._server_completions: list[int] = []
        self._finalized = False

    # -- wiring ------------------------------------------------------------

    def attach(self, cluster: "ClusterSimulator") -> None:
        if self.cluster is not None:
            raise RuntimeError("a TimelineRecorder attaches to one run")
        self.cluster = cluster
        self._cursor = _Cursor(len(cluster.servers))
        self._server_completions = [0] * len(cluster.servers)
        cluster.sim.observe(self._on_event)

    # -- observation -------------------------------------------------------

    def note_completion(self, server_id: int) -> None:
        """Count one completed request (called by the telemetry layer)."""
        self._window_completions += 1
        self._server_completions[server_id] += 1

    def _on_event(self, time: float) -> None:
        while time >= self._window_start + self.window_s:
            self._close_window()

    # -- sampling ----------------------------------------------------------

    def _cumulative(self) -> _Cursor:
        """Snapshot the cluster's cumulative counters right now."""
        cluster = self.cluster
        assert cluster is not None
        snap = _Cursor(len(cluster.servers))
        snap.events = cluster.sim.events_processed
        snap.dispatches = cluster.metrics.dispatches
        snap.handoffs = cluster.metrics.handoffs
        snap.connections = cluster.metrics.connections
        snap.frontend_busy = sum(
            f.cumulative_busy_s for f in cluster.frontends
        )
        flow_counts = getattr(cluster.policy, "flow_counts", None)
        if callable(flow_counts):
            snap.flows = dict(flow_counts())
        for i, server in enumerate(cluster.servers):
            snap.cpu_busy[i] = server.cpu.cumulative_busy_s
            snap.disk_busy[i] = server.disk.cumulative_busy_s
            snap.hits[i] = server.cache.hits
            snap.misses[i] = server.cache.misses
        return snap

    def _close_window(self) -> None:
        cluster = self.cluster
        cursor = self._cursor
        assert cluster is not None and cursor is not None
        now = self._cumulative()
        flow_delta = {
            key: now.flows.get(key, 0) - cursor.flows.get(key, 0)
            for key in now.flows
        }
        servers = tuple(
            ServerWindow(
                cpu_busy_s=now.cpu_busy[i] - cursor.cpu_busy[i],
                disk_busy_s=now.disk_busy[i] - cursor.disk_busy[i],
                queue_depth=(server.cpu.queue_length
                             + server.disk.queue_length),
                active=server.active,
                cache_bytes=server.cache.resident_bytes,
                cache_hits=now.hits[i] - cursor.hits[i],
                cache_misses=now.misses[i] - cursor.misses[i],
                completions=self._server_completions[i],
            )
            for i, server in enumerate(cluster.servers)
        )
        self._windows.append(TimelineWindow(
            start=self._window_start,
            width=self.window_s,
            events=now.events - cursor.events,
            completions=self._window_completions,
            dispatches=now.dispatches - cursor.dispatches,
            handoffs=now.handoffs - cursor.handoffs,
            connections=now.connections - cursor.connections,
            frontend_busy_s=now.frontend_busy - cursor.frontend_busy,
            servers=servers,
            flows=tuple(sorted(flow_delta.items())),
        ))
        self._cursor = now
        self._window_start += self.window_s
        self._window_completions = 0
        self._server_completions = [0] * len(cluster.servers)
        if len(self._windows) >= self.max_windows:
            self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent window pairs; double the width."""
        pairs = zip(self._windows[0::2], self._windows[1::2])
        self._windows = [a.coalesce(b) for a, b in pairs]
        self.window_s *= 2.0
        self.coalesce_rounds += 1
        # Re-anchor the open window on the new grid.
        self._window_start = (self._windows[-1].end if self._windows
                              else 0.0)

    # -- finish ------------------------------------------------------------

    def finalize(self) -> Timeline:
        """Close the trailing partial window and freeze the timeline."""
        if self._finalized:
            raise RuntimeError("timeline already finalized")
        self._finalized = True
        cluster = self.cluster
        if cluster is None:
            raise RuntimeError("recorder is not attached to a cluster")
        if (cluster.sim.now > self._window_start
                or self._window_completions):
            # Shrink the last window to the simulated span it covers.
            end = max(cluster.sim.now, self._window_start)
            saved = self.window_s
            self.window_s = max(end - self._window_start, 1e-12)
            self._close_window()
            self.window_s = saved
        return Timeline(
            windows=tuple(self._windows),
            base_window_s=self.base_window_s,
            window_s=self.window_s,
            max_windows=self.max_windows,
            n_servers=len(cluster.servers),
            coalesce_rounds=self.coalesce_rounds,
        )

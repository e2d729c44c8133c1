"""Closed-loop client population: capacity measurement by concurrency.

The trace replayer (:class:`~repro.sim.cluster.ClusterSimulator`) offers
load open-loop at recorded timestamps.  This module drives the same
cluster *closed-loop*: a fixed population of concurrent user sessions
navigates the site, each session issuing its next page view only after
the previous one completes (plus think time).  When a session ends, a
new one starts immediately, so exactly ``concurrency`` sessions stay
active through the measurement window — the standard way to measure a
server system's capacity (throughput saturates at the bottleneck as
concurrency grows, instead of queues growing without bound).

Use :func:`run_closed_loop` for one measurement, or sweep concurrency
for a classic capacity curve (``benchmarks/test_capacity_curve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import SimulationParams
from ..logs.records import Request
from ..logs.site import Website
from ..logs.synthetic import TraceGenerator, TrafficSpec
from ..policies.base import Policy
from .cluster import ClusterSimulator, Replicator, SimulationResult

__all__ = ["ClosedLoopDriver", "run_closed_loop"]


@dataclass(slots=True)
class _SessionState:
    conn_id: int
    category_idx: int
    current_page: str
    pages_left: int
    pending_pieces: int = 0


class ClosedLoopDriver:
    """Runs ``concurrency`` navigating sessions against a cluster.

    Parameters
    ----------
    site:
        The website model users navigate.
    policy / params / replicator:
        As for :class:`ClusterSimulator`.
    concurrency:
        Number of simultaneously active sessions (the closed-loop load).
    duration_s:
        Measurement window; finished sessions stop being replaced
        afterwards and the system drains.
    spec:
        Navigation behaviour (think time, session length, category mix;
        the ``num_requests``/``session_rate``/``duration_s`` fields are
        ignored in closed loop).
    seed:
        Full determinism.
    """

    def __init__(
        self,
        site: Website,
        policy: Policy,
        params: SimulationParams | None = None,
        *,
        concurrency: int = 32,
        duration_s: float = 10.0,
        spec: TrafficSpec | None = None,
        seed: int = 11,
        replicator: Replicator | None = None,
        warmup_fraction: float = 0.2,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.site = site
        self.concurrency = concurrency
        self.duration_s = duration_s
        self.spec = spec or TrafficSpec()
        self.spec.validate()
        self._nav = TraceGenerator(site, self.spec)
        self._sizes = site.object_sizes()
        self.cluster = ClusterSimulator(
            None, policy, params,
            replicator=replicator,
            warmup_fraction=warmup_fraction,
            window_s=duration_s,
            catalog=self._sizes,
        )
        # Imported here, where its generator is made, so that importing
        # the simulator package does not load numpy.
        import numpy as np

        self._rng = np.random.default_rng(seed)
        self._next_conn = 0
        self.sessions_completed = 0
        self.page_views = 0
        self._ran = False

    # -- session lifecycle ---------------------------------------------------

    def _start_session(self) -> None:
        rng = self._rng
        cat_idx = int(rng.choice(len(self._nav._categories),
                                 p=self._nav._cat_probs))
        cat = self._nav._categories[cat_idx]
        state = _SessionState(
            conn_id=self._next_conn,
            category_idx=cat_idx,
            current_page=self._nav._start_page(rng, cat),
            pages_left=min(
                self.spec.max_session_pages,
                max(1, int(rng.geometric(
                    1.0 / self.spec.mean_session_pages))),
            ),
        )
        self._next_conn += 1
        self._request_page(state)

    def _request_page(self, state: _SessionState) -> None:
        sim = self.cluster.sim
        page = self.site.page(state.current_page)
        state.pages_left -= 1
        self.page_views += 1
        objs = [o for o in page.embedded
                if self._rng.random() < self.spec.embed_request_prob]
        state.pending_pieces = 1 + len(objs)

        def piece_done(_sid: int, _hit: bool) -> None:
            state.pending_pieces -= 1
            if state.pending_pieces == 0:
                self._page_view_done(state)

        self.cluster.inject(Request(
            arrival=sim.now,
            conn_id=state.conn_id,
            path=page.path,
            size=self._sizes[page.path],
            dynamic=page.dynamic,
        ), on_complete=piece_done)
        # The browser fires the embedded fetches moments after the page.
        for i, obj in enumerate(objs):
            gap = float(self._rng.exponential(self.spec.embedded_gap))

            def send_obj(o=obj) -> None:
                self.cluster.inject(Request(
                    arrival=sim.now,
                    conn_id=state.conn_id,
                    path=o.path,
                    size=o.size,
                    is_embedded=True,
                    parent=page.path,
                ), on_complete=piece_done)

            sim.schedule(gap, send_obj)

    def _page_view_done(self, state: _SessionState) -> None:
        sim = self.cluster.sim
        if state.pages_left <= 0:
            self._end_session(state)
            return
        think = float(self._rng.exponential(self.spec.think_time_mean))

        def next_page() -> None:
            cat = self._nav._categories[state.category_idx]
            state.current_page = self._nav._pick_next_page(
                self._rng, state.current_page, cat)
            self._request_page(state)

        sim.schedule(think, next_page)

    def _end_session(self, state: _SessionState) -> None:
        self.cluster.close_connection(state.conn_id)
        self.sessions_completed += 1
        # Keep the population constant inside the window.
        if self.cluster.sim.now < self.duration_s:
            self._start_session()

    # -- run -------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the population until the window ends and the system drains."""
        if self._ran:
            raise RuntimeError("a ClosedLoopDriver instance runs once")
        self._ran = True
        if self.cluster.replicator is not None:
            # The replicator schedules rounds off the trace duration; in
            # closed loop we schedule them explicitly over the window.
            self._schedule_replication()
        for _ in range(self.concurrency):
            self._start_session()
        self.cluster.sim.run()
        return self.cluster.result()

    def _schedule_replication(self) -> None:
        replicator = self.cluster.replicator
        sim = self.cluster.sim
        interval = self.cluster.params.replication_interval_s

        def tick() -> None:
            replicator.run_round()
            nxt = sim.now + interval
            if nxt <= self.duration_s:
                sim.schedule_at(nxt, tick)

        first = min(interval, self.duration_s)
        sim.schedule_at(first, tick)


def run_closed_loop(
    site: Website,
    policy: Policy,
    params: SimulationParams | None = None,
    *,
    concurrency: int = 32,
    duration_s: float = 10.0,
    spec: TrafficSpec | None = None,
    seed: int = 11,
    replicator: Replicator | None = None,
    warmup_fraction: float = 0.2,
) -> SimulationResult:
    """One closed-loop capacity measurement (see :class:`ClosedLoopDriver`)."""
    driver = ClosedLoopDriver(
        site, policy, params,
        concurrency=concurrency, duration_s=duration_s, spec=spec,
        seed=seed, replicator=replicator, warmup_fraction=warmup_fraction,
    )
    return driver.run()

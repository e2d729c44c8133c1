"""Popularity-driven replication at the back end — Algorithm 3.

Every ``t`` seconds the engine sorts the rank table (dynamic popularity
from :class:`~repro.mining.popularity.PopularityTracker`) and re-tiers
files:

=====================  ======================================
rank vs ``T1``          replicas
=====================  ======================================
``>= T1``              all backends
``[T1/2, T1)``         3/4 of the backends
``[T1/4, T1/2)``       1/2 of the backends
``[T1/8, T1/4)``       no change (keep what exists)
``< T1/8``             none (existing copies unpinned)
=====================  ======================================

New replicas are pushed over the interconnect (80 µs/KB transfer billed
before installation) and pinned so ordinary cache churn cannot evict the
hot set before the next round; demoted files are unpinned and left to
LRU.  A per-round byte budget bounds replication traffic.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from ..mining.popularity import PopularityTracker, RankTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profiler import PhaseProfiler
    from ..sim.cluster import ClusterSimulator

__all__ = ["ReplicationEngine"]


class ReplicationEngine:
    """Algorithm-3 replication over a simulated cluster.

    Parameters
    ----------
    tracker:
        Popularity source; a fresh decayed tracker by default.  Seed it
        with an offline :class:`RankTable` prior to replicate sensibly
        from the first round.
    interval_s / t1:
        Override Algorithm 3's period and top threshold (defaults come
        from ``SimulationParams``, whose bounds they must meet: a
        positive, finite period and ``t1`` in ``(0, 1]``).
    max_round_fraction:
        Byte budget per round, as a fraction of one server's cache.
    pin_replicas:
        Pin pushed replicas until the next round re-tiers them.
    """

    def __init__(
        self,
        tracker: PopularityTracker | None = None,
        *,
        prior: RankTable | None = None,
        interval_s: float | None = None,
        t1: float | None = None,
        max_round_fraction: float = 0.5,
        pin_replicas: bool = True,
    ) -> None:
        if not 0.0 < max_round_fraction <= 1.0:
            raise ValueError("max_round_fraction must be in (0, 1]")
        # The bounds SimulationParams.validate puts on the values these
        # override; written so NaN fails too.
        if interval_s is not None and not 0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be positive and finite, got {interval_s}"
            )
        if t1 is not None and not 0.0 < t1 <= 1.0:
            raise ValueError(f"t1 must be in (0, 1], got {t1}")
        self._tracker = tracker or PopularityTracker(prior, half_life=60.0)
        self._interval_override = interval_s
        self._t1_override = t1
        self.max_round_fraction = max_round_fraction
        self.pin_replicas = pin_replicas
        self._cluster: "ClusterSimulator" | None = None
        self.rounds = 0
        self.replicas_pushed = 0
        self.bytes_pushed = 0
        #: Optional wall-clock profiler; when set, each round records a
        #: ``replicate`` phase (units = replicas pushed).
        self.profiler: "PhaseProfiler | None" = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, cluster: "ClusterSimulator") -> None:
        self._cluster = cluster

    @property
    def cluster(self) -> "ClusterSimulator":
        if self._cluster is None:
            raise RuntimeError("replication engine is not bound")
        return self._cluster

    @property
    def interval_s(self) -> float:
        if self._interval_override is not None:
            return self._interval_override
        return self.cluster.params.replication_interval_s

    @property
    def t1(self) -> float:
        if self._t1_override is not None:
            return self._t1_override
        return self.cluster.params.replication_t1

    def start(self) -> None:
        """Schedule periodic rounds for the duration of the trace."""
        end = self.cluster.trace.duration

        def tick() -> None:
            self.run_round()
            nxt = self.cluster.sim.now + self.interval_s
            if nxt <= end:
                self.cluster.sim.schedule_at(nxt, tick)

        first = min(self.interval_s, end) if end > 0 else self.interval_s
        self.cluster.sim.schedule_at(first, tick)

    def observe(self, path: str, now: float) -> None:
        """Feed one request into the dynamic popularity tracker."""
        self._tracker.record(path, now)

    # -- Algorithm 3 -------------------------------------------------------------

    def desired_replicas(self, rank: float) -> int | None:
        """Tier mapping: rank → target replica count (None = no change)."""
        n = len(self.cluster.servers)
        t1 = self.t1
        if rank >= t1:
            return n
        if rank >= t1 / 2:
            return max(1, (3 * n) // 4)
        if rank >= t1 / 4:
            return max(1, n // 2)
        if rank >= t1 / 8:
            return None  # NO_CHANGE
        return 0  # NONE

    def run_round(self) -> int:
        """One replication pass; returns replicas pushed this round."""
        if self.profiler is None:
            return self._run_round()
        start = time.perf_counter()
        pushed = self._run_round()
        self.profiler.record("replicate", time.perf_counter() - start,
                             units=pushed)
        return pushed

    def _run_round(self) -> int:
        cluster = self.cluster
        servers = cluster.servers
        params = cluster.params
        budget = int(self.max_round_fraction * params.server_cache_bytes)
        # Never pin more than this per server, or replicas would starve
        # the cache's working set — especially on small caches, where
        # the pinned hot set would otherwise crowd out each backend's
        # own partition.
        pin_limit = int(0.35 * params.server_cache_bytes)
        pushed = 0
        self.rounds += 1
        if self.pin_replicas:
            # Re-tier from scratch: last round's pins are re-earned below.
            for s in servers:
                s.cache.unpin_all()
        # (i) Sort the rank table — most popular first.
        ranked = self._tracker.top(len(self._tracker))
        if not ranked:
            return 0
        peak = ranked[0][1]
        for path, score in ranked:
            if budget <= 0:
                break
            rank = score / peak if peak > 0 else 0.0
            want = self.desired_replicas(rank)
            if want is None:
                continue
            size = cluster.catalog.get(path)
            if size is None or size <= 0:
                continue
            holders = [s for s in servers if s.cache.peek(path)]
            if want == 0:
                for s in holders:
                    s.cache.unpin(path)
                continue
            # Keep existing holders (re-pinning the hot ones)...
            for s in holders:
                if (self.pin_replicas
                        and s.cache.pinned_bytes + size <= pin_limit):
                    s.cache.pin(path)
            missing = want - len(holders)
            if missing <= 0:
                continue
            # ...and push new copies to the least-loaded live non-holders
            # (a crashed backend would drop the copy on arrival).
            holder_ids = {s.server_id for s in holders}
            candidates = sorted(
                (s for s in servers
                 if s.up and s.server_id not in holder_ids),
                key=lambda s: (s.load, s.server_id),
            )
            for target in candidates[:missing]:
                if budget < size:
                    budget = 0
                    break
                budget -= size
                pushed += 1
                self.replicas_pushed += 1
                self.bytes_pushed += size
                cluster.metrics.count_replicated_bytes(size)
                delay = params.transmit_s(size)
                cluster.sim.schedule(
                    delay,
                    self._make_install(target, path, size, pin_limit),
                )
        return pushed

    def _make_install(self, server, path: str, size: int, pin_limit: int):
        def install() -> None:
            pin = (self.pin_replicas
                   and server.cache.pinned_bytes + size <= pin_limit)
            server.receive_replica(path, size, pin=pin)
        return install

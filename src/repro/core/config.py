"""Simulation parameters — the paper's Table 1, plus policy constants.

The scanned table lost several numeric values ("Disk latency ms (fixed)
µs per KB"); where the paper is garbled, defaults follow the cost model
of the original LARD paper (Pai et al., ASPLOS'98) from which this
paper's simulator descends, and every experiment that is sensitive to a
defaulted value sweeps it (Fig. 8 sweeps memory).  All values are
overridable.

Time quantities are stored in the paper's natural units (µs/ms/seconds)
with ``*_s`` helpers converting to the engine's seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

__all__ = ["SimulationParams", "MB", "KB"]

KB = 1024
MB = 1024 * 1024


@dataclass(slots=True)
class SimulationParams:
    """Every constant the cluster simulator consumes.

    Table-1 entries
    ---------------
    kernel_memory_bytes / application_memory_bytes / pinned_memory_bytes:
        128 MB / 128 MB / 72 MB ("variable").  The pinned region is the
        per-server file cache unless ``cache_bytes`` overrides it.
    connection_latency_us:
        150 µs per client connection establishment.
    disk_latency_fixed_ms / disk_us_per_kb:
        Fixed disk access latency plus per-KB transfer (values garbled
        in the paper; defaults per DESIGN.md §3).
    handoff_us:
        200 µs per TCP handoff.
    transmit_us_per_kb:
        80 µs per 1 KB block across the network (response transmission
        and inter-server migration alike).
    power_on / power_off / power_hibernate:
        100% when ON, 0% OFF, 5% in hibernation (relative units);
        printed in the Table-1 view only, as the model has no power
        states.
    interconnect_mbps:
        100 Mbps Fast Ethernet (documented; the per-KB costs above are
        the operative model).

    Model constants beyond Table 1
    ------------------------------
    n_backends:
        Cluster size; the paper shows consistency for 6–16.
    frontend_parse_us / dispatch_us / backend_cpu_us:
        Front-end request analysis cost, dispatcher lookup cost, and
        per-request backend protocol processing.
    lard_t_low / lard_t_high:
        LARD's load thresholds (active requests per server).
    prefetch_threshold / depgraph_order:
        Algorithm 2's confidence threshold and the dependency-graph
        order.
    replication_interval_s / replication_t1:
        Algorithm 3's period ``t`` and top rank threshold ``T1``.
    cache_bytes:
        Per-server file-cache capacity; None derives it from
        ``pinned_memory_bytes``.  Experiments usually set it to a
        fraction of the site's total bytes (Fig. 7 uses 30%).
    """

    # --- Table 1 ----------------------------------------------------------
    kernel_memory_bytes: int = 128 * MB
    application_memory_bytes: int = 128 * MB
    pinned_memory_bytes: int = 72 * MB
    connection_latency_us: float = 150.0
    disk_latency_fixed_ms: float = 10.0
    disk_us_per_kb: float = 25.0
    handoff_us: float = 200.0
    transmit_us_per_kb: float = 80.0
    interconnect_mbps: float = 100.0
    power_on: float = 1.0
    power_off: float = 0.0
    power_hibernate: float = 0.05

    # --- cluster shape ----------------------------------------------------
    n_backends: int = 8
    #: Parallel distributor nodes behind a layer-4 switch (Aron et al.'s
    #: scalable content-aware distribution, §2 related work).  1 = the
    #: paper's single front end; connections hash across distributors.
    n_frontends: int = 1
    cache_bytes: int | None = None
    #: Backend cache replacement: ``lru`` (default) or ``gdsf``
    #: (Cherkasova [30]; see ``repro.sim.gdsf``).
    cache_policy: str = "lru"

    # --- processing costs -------------------------------------------------
    frontend_parse_us: float = 15.0
    dispatch_us: float = 30.0
    backend_cpu_us: float = 50.0
    #: Concurrent request slots per backend (worker-pool size).  A
    #: request holds its slot from admission to response, so a cache
    #: miss waiting on disk blocks a slot — the mechanism that makes
    #: low-locality policies collapse under load, as in the Apache-era
    #: servers the paper models.
    backend_workers: int = 8
    #: CPU time to generate one dynamic (CGI) response, in ms
    #: (dynamic-content extension; the paper's future-work item).
    dynamic_cpu_ms: float = 5.0

    # --- policy constants ---------------------------------------------------
    lard_t_low: int = 25
    lard_t_high: int = 65
    prefetch_threshold: float = 0.35
    #: successors prefetched per page view (Algorithm 2 prefetches 1)
    prefetch_top_k: int = 1
    depgraph_order: int = 2
    replication_interval_s: float = 10.0
    replication_t1: float = 0.8

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        # Written so NaN fails too: every comparison with NaN is false.
        positive = {
            "connection_latency_us": self.connection_latency_us,
            "disk_latency_fixed_ms": self.disk_latency_fixed_ms,
            "handoff_us": self.handoff_us,
            "transmit_us_per_kb": self.transmit_us_per_kb,
            "backend_cpu_us": self.backend_cpu_us,
            "replication_interval_s": self.replication_interval_s,
        }
        for name, value in positive.items():
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        non_negative = {
            "disk_us_per_kb": self.disk_us_per_kb,
            "frontend_parse_us": self.frontend_parse_us,
            "dispatch_us": self.dispatch_us,
            "dynamic_cpu_ms": self.dynamic_cpu_ms,
        }
        for name, value in non_negative.items():
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, got {value}"
                )
        if self.n_backends < 1:
            raise ValueError("n_backends must be >= 1")
        if self.n_frontends < 1:
            raise ValueError("n_frontends must be >= 1")
        if self.backend_workers < 1:
            raise ValueError("backend_workers must be >= 1")
        if self.cache_policy not in ("lru", "gdsf"):
            raise ValueError(
                f"unknown cache_policy {self.cache_policy!r}"
            )
        if self.cache_bytes is not None and self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if not 0 < self.lard_t_low <= self.lard_t_high:
            raise ValueError("need 0 < lard_t_low <= lard_t_high")
        if not 0.0 <= self.prefetch_threshold <= 1.0:
            raise ValueError("prefetch_threshold must be in [0, 1]")
        if self.depgraph_order < 1:
            raise ValueError("depgraph_order must be >= 1")
        if self.prefetch_top_k < 1:
            raise ValueError("prefetch_top_k must be >= 1")
        if not 0.0 < self.replication_t1 <= 1.0:
            raise ValueError("replication_t1 must be in (0, 1]")

    # -- derived values, in engine seconds ---------------------------------

    @property
    def server_cache_bytes(self) -> int:
        """Effective per-server file-cache capacity."""
        if self.cache_bytes is not None:
            return self.cache_bytes
        return self.pinned_memory_bytes

    @property
    def connection_latency_s(self) -> float:
        return self.connection_latency_us * 1e-6

    @property
    def handoff_s(self) -> float:
        return self.handoff_us * 1e-6

    @property
    def frontend_parse_s(self) -> float:
        return self.frontend_parse_us * 1e-6

    @property
    def dispatch_s(self) -> float:
        return self.dispatch_us * 1e-6

    @property
    def backend_cpu_s(self) -> float:
        return self.backend_cpu_us * 1e-6

    def disk_service_s(self, size_bytes: int) -> float:
        """Disk read time: fixed latency plus per-KB transfer."""
        return (self.disk_latency_fixed_ms * 1e-3
                + self.disk_us_per_kb * 1e-6 * size_bytes / KB)

    def transmit_s(self, size_bytes: int) -> float:
        """Network transmission time for ``size_bytes``."""
        return self.transmit_us_per_kb * 1e-6 * size_bytes / KB

    @property
    def dynamic_cpu_s(self) -> float:
        """CPU time to generate one dynamic response."""
        return self.dynamic_cpu_ms * 1e-3

    def with_overrides(self, **kwargs: Any) -> "SimulationParams":
        """A copy with fields replaced (validated)."""
        return replace(self, **kwargs)

    def table1_rows(self) -> list[tuple[str, str]]:
        """The Table-1 view used by the parameter bench/report."""
        return [
            ("Kernel Memory", f"{self.kernel_memory_bytes // MB} MB"),
            ("Application Memory", f"{self.application_memory_bytes // MB} MB"),
            ("Pinned Memory", f"{self.pinned_memory_bytes // MB} MB (variable)"),
            ("Connection latency", f"{self.connection_latency_us:g} us"),
            ("Disk latency",
             f"{self.disk_latency_fixed_ms:g} ms fixed + "
             f"{self.disk_us_per_kb:g} us per KB"),
            ("Power consumption",
             f"{self.power_on:.0%} ON, {self.power_off:.0%} OFF, "
             f"{self.power_hibernate:.0%} hibernation"),
            ("Interconnection network", f"{self.interconnect_mbps:g} Mbps"),
            ("TCP handoff latency", f"{self.handoff_us:g} us per request"),
            ("Data transmission rate",
             f"{self.transmit_us_per_kb:g} us per 1 KB block"),
        ]

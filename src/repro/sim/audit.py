"""Runtime invariant checking for cluster simulations.

The paper's figures are conservation statements in disguise: Fig. 6's
dispatch frequency, Fig. 7's throughput, and Fig. 8's hit rates all
assume the simulator's accounting is airtight — every injected request
completes exactly once, cache byte counters match resident entries, the
dispatcher's locality table mirrors real cache contents, and no
single-server station is ever "busy" for longer than the wall-clock.
:class:`SimulationAuditor` makes those assumptions checkable *at
runtime*: attach one to a :class:`~repro.sim.cluster.ClusterSimulator`
and it verifies the structural-invariant catalogue every
``check_interval`` engine events and again when the run completes.

The auditor is pure observation.  It schedules nothing on the event
calendar, draws no randomness, and mutates no simulation state, so an
audited run produces a :class:`~repro.sim.stats.SimulationReport`
bit-identical to the unaudited run — a property the differential
harness (:mod:`repro.sim.differential`) checks explicitly.

Invariant catalogue
-------------------
* **clock** — the event clock is monotonically non-decreasing;
* **cache** — per-backend byte accounting: ``resident_bytes`` equals the
  sum of resident entry sizes, ``pinned_bytes`` equals the sum of pinned
  entry sizes, and ``0 <= pinned <= resident <= capacity``;
* **dispatcher** — locality-table coherence, both directions: every
  cached file is tracked for its server, and every tracked holder
  really holds the file;
* **connections** — per-connection in-flight counts never go negative,
  arrivals on one connection are time-ordered, and (trace mode, at
  completion) every opened connection was closed;
* **resources** — unclamped busy time never exceeds elapsed time on any
  front-end, CPU, or disk station (:meth:`Resource.busy_fraction`);
* **metrics** — ``completed <= injected`` (equal once a trace-mode run
  drains), ``prefetch_useful <= prefetches_issued`` per backend and in
  aggregate, event counters bounded by arrivals, and — for policies
  exposing ``flow_counts()`` — dispatches + proactive forwards + direct
  table hits sum to the routed-request count.

A violated invariant is recorded as a structured ``audit``
:class:`~repro.sim.tracing.TraceEvent` (on the cluster's tracer too,
when one is attached) and, in the default strict mode, raised as a hard
:class:`AuditError` carrying the offending state snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .tracing import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .cluster import ClusterSimulator
    from .engine import Resource

__all__ = ["AuditError", "AuditSummary", "SimulationAuditor"]

#: Float slack for busy-time vs. wall-clock comparisons.
_TOLERANCE = 1e-9


class AuditError(AssertionError):
    """A structural invariant was violated.

    Attributes
    ----------
    check:
        Name of the violated invariant (``cache``, ``dispatcher``, ...).
    snapshot:
        The offending state, as a flat mapping of scalars.
    """

    def __init__(self, check: str, message: str,
                 snapshot: Mapping[str, object]) -> None:
        detail = ", ".join(f"{k}={v!r}" for k, v in snapshot.items())
        super().__init__(f"[{check}] {message}" + (f" ({detail})" if detail
                                                   else ""))
        self.check = check
        self.snapshot = dict(snapshot)


@dataclass(frozen=True, slots=True)
class AuditSummary:
    """Scalar outcome of one audited run (picklable, rides in results)."""

    #: engine events observed through the ``on_event`` hook
    events_seen: int
    #: full invariant sweeps executed (interval + completion)
    checks_run: int
    #: invariant violations recorded (0 for a clean run)
    violations: int
    #: requests presented to the front end
    injected: int
    #: requests completed
    completed: int

    @property
    def clean(self) -> bool:
        return self.violations == 0


class SimulationAuditor:
    """Attachable runtime invariant checker for one cluster run.

    Parameters
    ----------
    check_interval:
        Engine events between full invariant sweeps (the cheap clock
        check runs on every event).
    strict:
        When True (default) the first violation raises
        :class:`AuditError`; when False violations are recorded on
        :attr:`violations` and the run continues.
    """

    def __init__(self, *, check_interval: int = 1000,
                 strict: bool = True) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.check_interval = check_interval
        self.strict = strict
        self.cluster: "ClusterSimulator | None" = None
        self.events_seen = 0
        self.checks_run = 0
        self.violations: list[TraceEvent] = []
        self._last_event_time = float("-inf")
        self._injected = 0
        self._completed = 0
        self._dynamic_injected = 0
        #: conn_id -> latest arrival time seen (per-conn ordering check)
        self._conn_last_arrival: dict[int, float] = {}
        #: the attached cluster's trace start (see :meth:`attach`)
        self._t0 = 0.0

    # -- wiring ------------------------------------------------------------

    def attach(self, cluster: "ClusterSimulator") -> None:
        """Bind to a cluster: it feeds this auditor its arrivals and
        completions, and its engine every event.  The cluster's
        ``auditor=`` argument calls this; so may a caller, before the
        run starts."""
        if self.cluster is not None:
            raise RuntimeError("a SimulationAuditor attaches to one run")
        if cluster.auditor is not None:
            raise RuntimeError("the cluster already has an auditor")
        self.cluster = cluster
        cluster.auditor = self
        # Routed trace requests keep their trace arrival; the order
        # check compares the simulated times they arrived at.
        self._t0 = cluster._t0
        cluster.sim.observe(self._on_event)

    # -- observation hooks (called by the cluster) -------------------------

    def note_arrival(self, req) -> None:
        self._injected += 1
        if req.dynamic:
            self._dynamic_injected += 1
        arrival = req.arrival - self._t0
        last = self._conn_last_arrival.get(req.conn_id)
        if last is not None and arrival < last - _TOLERANCE:
            self._violate("connections",
                          "per-connection arrivals out of order", {
                              "conn_id": req.conn_id,
                              "arrival": arrival,
                              "previous_arrival": last,
                          })
        self._conn_last_arrival[req.conn_id] = max(
            last if last is not None else arrival, arrival)

    def note_completion(self, req, server_id: int, hit: bool) -> None:
        self._completed += 1

    def _on_event(self, time: float) -> None:
        self.events_seen += 1
        if time < self._last_event_time - _TOLERANCE:
            self._violate("clock", "event clock moved backwards", {
                "time": time, "previous": self._last_event_time,
            })
        self._last_event_time = max(self._last_event_time, time)
        if self.events_seen % self.check_interval == 0:
            self.check_now()

    # -- checks ------------------------------------------------------------

    def check_now(self) -> None:
        """Run one full invariant sweep over the attached cluster."""
        cluster = self._require_cluster()
        self.checks_run += 1
        self._check_caches(cluster)
        self._check_dispatcher(cluster)
        self._check_resources(cluster)
        self._check_connections(cluster)
        self._check_metrics(cluster)

    def finalize(self) -> AuditSummary:
        """Completion sweep plus end-of-run conservation checks."""
        cluster = self._require_cluster()
        self.check_now()
        drained = cluster.sim.pending_events == 0
        if cluster.trace is not None and drained:
            if self._completed != self._injected:
                self._violate("metrics",
                              "drained run lost or duplicated requests", {
                                  "injected": self._injected,
                                  "completed": self._completed,
                              })
            open_conns = len(cluster._connections)
            if open_conns:
                self._violate("connections",
                              "connections left open after drain",
                              {"open": open_conns})
            leftover = sum(
                1 for n in cluster._remaining_per_conn.values() if n != 0
            )
            if leftover:
                self._violate("connections",
                              "per-connection in-flight counts nonzero "
                              "after drain", {"connections": leftover})
        return self.summary()

    def summary(self) -> AuditSummary:
        return AuditSummary(
            events_seen=self.events_seen,
            checks_run=self.checks_run,
            violations=len(self.violations),
            injected=self._injected,
            completed=self._completed,
        )

    # -- individual invariants ---------------------------------------------

    def _check_caches(self, cluster: "ClusterSimulator") -> None:
        for server in cluster.servers:
            cache = server.cache
            entries = cache._entries
            actual_bytes = sum(e.size for e in entries.values())
            actual_pinned = sum(e.size for e in entries.values() if e.pinned)
            snap = {
                "server": server.server_id,
                "resident_bytes": cache.resident_bytes,
                "entry_bytes": actual_bytes,
                "pinned_bytes": cache.pinned_bytes,
                "entry_pinned_bytes": actual_pinned,
                "capacity_bytes": cache.capacity_bytes,
                "entries": len(entries),
            }
            if cache.resident_bytes != actual_bytes:
                self._violate("cache", "resident_bytes does not equal the "
                              "sum of entry sizes", snap)
            if cache.pinned_bytes != actual_pinned:
                self._violate("cache", "pinned_bytes does not equal the "
                              "sum of pinned entry sizes", snap)
            if not 0 <= cache.pinned_bytes <= cache.resident_bytes:
                self._violate("cache", "pinned bytes outside "
                              "[0, resident]", snap)
            if cache.resident_bytes > cache.capacity_bytes:
                self._violate("cache", "resident bytes exceed capacity",
                              snap)
            if any(e.size <= 0 for e in entries.values()):
                self._violate("cache", "non-positive entry size", snap)

    def _check_dispatcher(self, cluster: "ClusterSimulator") -> None:
        dispatcher = cluster.dispatcher
        for server in cluster.servers:
            for path in server.cache.contents():
                if server.server_id not in dispatcher.peek(path):
                    self._violate("dispatcher",
                                  "cached file missing from the locality "
                                  "table", {
                                      "server": server.server_id,
                                      "path": path,
                                  })
        for path, holders in dispatcher._holders.items():
            for sid in holders:
                if not (0 <= sid < len(cluster.servers)
                        and cluster.servers[sid].cache.peek(path)):
                    self._violate("dispatcher",
                                  "locality table names a phantom holder", {
                                      "server": sid,
                                      "path": path,
                                  })

    def _check_resources(self, cluster: "ClusterSimulator") -> None:
        now = cluster.sim.now
        stations: list["Resource"] = list(cluster.frontends)
        for server in cluster.servers:
            stations.append(server.cpu)
            stations.append(server.disk)
        for res in stations:
            fraction = res.busy_fraction(now)
            if res.busy_time < -_TOLERANCE or fraction > 1.0 + 1e-6:
                self._violate("resources",
                              "busy time exceeds elapsed wall-clock", {
                                  "resource": res.name,
                                  "busy_time": res.busy_time,
                                  "busy_fraction": fraction,
                                  "elapsed": now,
                              })

    def _check_connections(self, cluster: "ClusterSimulator") -> None:
        negative = [
            conn_id for conn_id, n in cluster._remaining_per_conn.items()
            if n < 0
        ]
        if negative:
            self._violate("connections",
                          "negative per-connection in-flight count",
                          {"conn_ids": tuple(negative[:8])})

    def _check_metrics(self, cluster: "ClusterSimulator") -> None:
        metrics = cluster.metrics
        completed = metrics.completed
        snap = {"injected": self._injected, "completed": completed}
        if completed > self._injected:
            self._violate("metrics", "more completions than injections",
                          snap)
        if completed != self._completed:
            self._violate("metrics", "collector completions diverge from "
                          "observed completions",
                          {**snap, "observed": self._completed})
        for counter in ("dispatches", "handoffs", "connections"):
            value = getattr(metrics, counter)
            if not 0 <= value <= self._injected:
                self._violate("metrics",
                              f"{counter} outside [0, injected]",
                              {**snap, counter: value})
        issued = 0
        useful = 0
        for server in cluster.servers:
            issued += server.prefetches_issued
            useful += server.prefetch_useful
            if not 0 <= server.prefetch_useful <= server.prefetches_issued:
                self._violate("metrics",
                              "prefetch_useful exceeds prefetches_issued", {
                                  "server": server.server_id,
                                  "issued": server.prefetches_issued,
                                  "useful": server.prefetch_useful,
                              })
        if not 0 <= useful <= issued:
            self._violate("metrics",
                          "aggregate prefetch_useful exceeds issued",
                          {"issued": issued, "useful": useful})
        flow_counts = getattr(cluster.policy, "flow_counts", None)
        if callable(flow_counts):
            flows = flow_counts()
            total = sum(flows.values())
            if total != self._injected:
                self._violate("metrics",
                              "routing flow counts do not sum to routed "
                              "requests",
                              {**flows, "routed": self._injected})

    # -- violation plumbing -------------------------------------------------

    def _violate(self, check: str, message: str,
                 snapshot: Mapping[str, object]) -> None:
        cluster = self.cluster
        now = cluster.sim.now if cluster is not None else 0.0
        event = TraceEvent(
            time=now, kind="audit", conn_id=-1, path=check,
            fields=tuple(sorted(
                {"message": message, **snapshot}.items()
            )),
        )
        self.violations.append(event)
        if cluster is not None and cluster.tracer is not None:
            cluster.tracer.emit(now, "audit", -1, check,
                                message=message, **dict(snapshot))
        if self.strict:
            raise AuditError(check, message, snapshot)

    def _require_cluster(self) -> "ClusterSimulator":
        if self.cluster is None:
            raise RuntimeError("auditor is not attached to a cluster")
        return self.cluster

    # -- convenience --------------------------------------------------------

    def violation_events(self) -> Iterable[TraceEvent]:
        return tuple(self.violations)

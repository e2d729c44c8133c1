"""The cluster simulator: trace in, :class:`SimulationResult` out.

Models the paper's Fig. 5 pipeline.  Each request pays, in order:

1. **front-end CPU** — request parsing, plus a dispatcher lookup when the
   policy dispatched (this station saturating is the distributor
   bottleneck §4.2 worries about);
2. **connection costs** — connection setup (150 µs) for the first
   request of a connection (every request under HTTP/1.0-style
   policies), and a TCP handoff (200 µs) whenever the serving backend
   changes (every request for non-persistent policies);
3. **backend** — CPU, cache/disk, NIC (see
   :class:`~repro.sim.server.BackendServer`).

The trace is replayed open-loop at its recorded timestamps (the paper's
simulator is trace-driven).  Offered load is raised by generating the
workload at a higher session rate, never by compressing timestamps
(DESIGN.md §6a, item 9).

Arrivals stream into the calendar one at a time (:class:`_ArrivalPump`)
rather than being materialised up front: the calendar holds the next
arrival due plus in-flight work, never the trace.  The pump pushes each
arrival with a sequence number pre-reserved from the block an eager
scheduler would have used, which makes the event order — and therefore
every result — bit-identical to eager scheduling; the property tests
replay random traces under both modes to prove it.  Requests are pulled
in chunks so their size-derived service times are computed as a batch
(:func:`repro.sim.soa.service_time_arrays`).

Per-request state lives in a struct-of-arrays
:class:`~repro.sim.soa.FlowTable` shared with the backends: the
calendar carries integer slot indices via the engine's ``arg`` channel
and every stage callback is one long-lived bound method, so the demand
hot path allocates nothing per request beyond the slot columns.

The trace is a :class:`~repro.logs.records.RequestSource` and the pump
pulls from its iterator, so the in-memory
:class:`~repro.logs.records.Trace` and the lazy
:class:`~repro.logs.replay.SidecarRequestSource` replay alike; with the
lazy source a full replay holds one chunk of requests instead of the
whole trace, and the results are bit-identical (the streamed-replay
differential check and ``tests/test_streamed_replay.py`` prove it).
A pass that yields more or fewer requests than the source's summary
counted (a sidecar rewritten after it was loaded) raises ``ValueError``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from typing import (
    TYPE_CHECKING, Callable, Mapping, Protocol, runtime_checkable,
)

from ..core.config import SimulationParams
from ..logs.records import Request, RequestSource
from ..policies.base import Policy, RoutingDecision
from .engine import Resource, Simulator
from .frontend import ConnectionState, Dispatcher
from .server import BackendServer
from .soa import FlowTable, service_time_arrays
from .stats import MetricsCollector, SimulationReport

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..obs.telemetry import Telemetry, TelemetrySummary
    from .audit import AuditSummary, SimulationAuditor
    from .failures import FailureSchedule
    from .tracing import RequestTracer

__all__ = [
    "Replicator",
    "SimulationResult",
    "ClusterSimulator",
]

#: How many requests the pump pulls (and batch-prices) at a time.
ARRIVAL_REFILL_CHUNK = 256

#: Signature of a per-request completion callback:
#: ``on_complete(server_id, hit)`` fires when the response finishes.
CompletionCallback = Callable[[int, bool], None]


class _ArrivalPump:
    """Feeds trace arrivals into the calendar, one pending at a time.

    Eager scheduling pushed all N arrivals before the first event fired,
    so every heap operation paid log(N).  The pump keeps exactly one
    arrival in the calendar, the next one due, and pushes its successor
    when it fires.  Two invariants make this bit-identical to eager mode:

    * arrival *k* carries the sequence number ``base_seq + k`` that an
      eager schedule would have given it (a block reserved via
      :meth:`Simulator.reserve_sequences`), so ``(time, seq)`` keys —
      and hence fire order — are unchanged;
    * traces are time-sorted and those numbers rise with *k*, so the
      earliest unfired arrival holds the smallest arrival key: the
      calendar's minimum is what it would be with every arrival present,
      and the calendar cannot drain while arrivals remain.

    Arrival *k* fires at ``trace[k].arrival - t0`` (``t0`` the trace
    start), the float a rebased copy of the request used to carry.  The
    pump routes the trace's own :class:`Request`; whoever reads a routed
    request's arrival subtracts ``t0`` the same way.

    Requests are pulled ``ARRIVAL_REFILL_CHUNK`` at a time so their
    size-derived service times (transmit, disk read) are priced as one
    batched call (:func:`repro.sim.soa.service_time_arrays`); the
    per-element results are bit-identical to the scalar path.
    """

    __slots__ = ("cluster", "_it", "total", "pulled", "next_seq",
                 "pending", "_t0", "_schedule", "_fire_cb", "_tx_us",
                 "_disk_ms", "_disk_us")

    def __init__(
        self,
        cluster: "ClusterSimulator",
        trace: RequestSource,
        base_seq: int,
        eager: bool,
    ) -> None:
        self.cluster = cluster
        self._it = iter(trace)
        self.total = len(trace)
        self.pulled = 0
        #: pulled, unfired arrivals: ``(time, request, tx_s, disk_s)``
        self.pending: deque[tuple[float, Request, float, float]] = deque()
        self._t0 = cluster._t0
        self._schedule = schedule = cluster.sim.schedule_at_reserved
        params = cluster.params
        self._tx_us = params.transmit_us_per_kb
        self._disk_ms = params.disk_latency_fixed_ms
        self._disk_us = params.disk_us_per_kb
        if eager:
            # The reference mode: every arrival enters the calendar now.
            self._pull(self.total)
            fire = self._fire_cb = self._route_next
            for seq, (time, _, _, _) in enumerate(self.pending, base_seq):
                schedule(time, seq, fire)
        else:
            self._pull(ARRIVAL_REFILL_CHUNK)
            self._fire_cb = self._fire
            schedule(self.pending[0][0], base_seq, self._fire_cb)
            self.next_seq = base_seq + 1

    def _pull(self, n: int) -> None:
        """Pull and price the next ``n`` requests (fewer at the end)."""
        i = self.pulled
        n = min(n, self.total - i)
        self.pulled = i + n
        batch = list(islice(self._it, n))
        # The summary's count sized the sequence block and the
        # connection close bookkeeping; a pass that disagrees with it
        # (a sidecar rewritten since it was loaded) cannot replay.
        if len(batch) < n:
            raise ValueError(
                f"trace {self.cluster.trace.name!r} ended after "
                f"{i + len(batch)} of its {self.total} requests"
            )
        if self.pulled == self.total and next(self._it, None) is not None:
            raise ValueError(
                f"trace {self.cluster.trace.name!r} yielded more than its "
                f"{self.total} requests"
            )
        tx, disk = service_time_arrays(
            [r.size for r in batch], self._tx_us, self._disk_ms,
            self._disk_us,
        )
        t0 = self._t0
        self.pending.extend(zip([r.arrival - t0 for r in batch], batch,
                                tx, disk))

    def _fire(self) -> None:
        """Arrival *k* is due: push arrival *k+1*, then route *k*."""
        pending = self.pending
        _, req, tx_s, disk_s = pending.popleft()
        if not pending and self.pulled < self.total:
            self._pull(ARRIVAL_REFILL_CHUNK)
        if pending:
            seq = self.next_seq
            self.next_seq = seq + 1
            self._schedule(pending[0][0], seq, self._fire_cb)
        self.cluster._route_request(req, None, tx_s, disk_s)

    def _route_next(self) -> None:
        """Eager mode: the arrival due is already the queue's head."""
        _, req, tx_s, disk_s = self.pending.popleft()
        self.cluster._route_request(req, None, tx_s, disk_s)


@runtime_checkable
class Replicator(Protocol):
    """Optional popularity-driven replication engine (Algorithm 3)."""

    def bind(self, cluster: "ClusterSimulator") -> None: ...
    def start(self) -> None: ...
    def observe(self, path: str, now: float) -> None: ...


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Everything a run produced."""

    policy_name: str
    trace_name: str
    n_backends: int
    report: SimulationReport
    frontend_utilization: float
    server_utilizations: tuple[dict[str, float], ...]
    warmup_until: float
    dispatcher_lookups: int
    #: Present when the run was audited (``--audit``); ``clean`` means
    #: zero invariant violations.  The report itself is bit-identical
    #: with and without auditing — the hook is pure observation.
    audit: AuditSummary | None = None
    #: Present when the run was telemetered (``--telemetry``): timeline,
    #: latency histograms, phase profile.  Like the audit layer, pure
    #: observation — the report is bit-identical either way.
    telemetry: "TelemetrySummary | None" = None

    @property
    def throughput_rps(self) -> float:
        return self.report.throughput_rps

    @property
    def mean_response_s(self) -> float:
        return self.report.mean_response_s

    @property
    def hit_rate(self) -> float:
        return self.report.hit_rate

    def summary(self) -> str:
        return (
            f"{self.policy_name:>18s} on {self.trace_name}: "
            f"{self.report.row()}"
        )


class ClusterSimulator:
    """One simulated run of a distribution policy over a trace.

    Parameters
    ----------
    trace:
        Evaluation trace (arrival times set the offered load), any
        :class:`~repro.logs.records.RequestSource`: the in-memory
        :class:`~repro.logs.records.Trace` and the lazy
        :class:`~repro.logs.replay.SidecarRequestSource` replay
        bit-identically, the lazy one without ever holding the
        requests.  ``None`` selects injection mode.
    policy:
        A bound-on-construction :class:`~repro.policies.base.Policy`.
    params:
        Cost model (defaults to Table 1).
    replicator:
        Optional Algorithm-3 engine; it is bound, fed every request for
        popularity tracking, and started with the run.
    warmup_fraction:
        Leading fraction of the trace excluded from the report's
        response/throughput/hit statistics (cold-cache compulsory misses
        are not what the paper's steady-state figures show).
    eager_arrivals:
        Schedule every trace arrival before the first event instead of
        streaming them in one at a time.  Eager scheduling is the
        reference the arrival pump's equivalence tests and the core
        benchmark compare against; results are bit-identical either
        way.
    """

    def __init__(
        self,
        trace: RequestSource | None,
        policy: Policy,
        params: SimulationParams | None = None,
        *,
        replicator: Replicator | None = None,
        warmup_fraction: float = 0.1,
        window_s: float | None = None,
        tracer: "RequestTracer | None" = None,
        catalog: Mapping[str, int] | None = None,
        failures: "FailureSchedule | None" = None,
        auditor: "SimulationAuditor | None" = None,
        telemetry: "Telemetry | None" = None,
        eager_arrivals: bool = False,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if window_s is not None and window_s <= 0:
            raise ValueError("window_s must be positive")
        self._eager_arrivals = eager_arrivals
        if trace is not None and len(trace) == 0:
            raise ValueError("trace is empty")
        if trace is None:
            # Injection mode: a driver (e.g. the closed-loop client
            # population) feeds requests via :meth:`inject`.
            if catalog is None:
                raise ValueError("injection mode requires a catalog")
            if window_s is None:
                raise ValueError("injection mode requires window_s")
        self.params = params or SimulationParams()
        self.sim = Simulator()
        self.policy = policy
        self.trace = trace
        self.warmup_fraction = warmup_fraction
        #: Throughput measurement window (seconds from trace start).
        #: Defaults to the trace duration; experiments applying a
        #: sustained load for T seconds pass that T so the drain tail
        #: does not count toward throughput.
        self.window_s = (window_s if window_s is not None
                         else trace.duration)
        #: Trace time of simulated time zero: a trace request arriving at
        #: ``req.arrival`` reaches the front end at ``req.arrival - t0``.
        self._t0 = trace.start if trace is not None else 0.0
        self.dispatcher = Dispatcher()
        self.metrics = MetricsCollector(self.params.n_backends, t0=self._t0)
        self._catalog: Mapping[str, int] = (
            trace.catalog if trace is not None else dict(catalog)
        )
        #: shared struct-of-arrays per-request state (see repro.sim.soa)
        self.flows = FlowTable()
        #: shared crashed-server count ([0] while everything is up) —
        #: lets policy fast paths skip per-request ``up`` filtering
        self._down_count: list[int] = [0]
        self.servers: list[BackendServer] = [
            BackendServer(
                self.sim, i, self.params,
                on_cache_insert=self.dispatcher.on_insert,
                on_cache_evict=self.dispatcher.on_evict,
                flows=self.flows,
                down_counter=self._down_count,
            )
            for i in range(self.params.n_backends)
        ]
        #: per-server in-flight demand counts, mirroring
        #: ``servers[i].load`` — a flat int list so policies take
        #: ``min(loads)`` at C speed instead of a Python genexpr over
        #: server objects (the LARD/PRORD per-request load scan).
        self.loads: list[int] = [0] * self.params.n_backends
        # One or more distributor nodes behind a layer-4 switch (Aron et
        # al.'s decentralised design when n_frontends > 1): each
        # connection is pinned to one distributor by hash, as a content-
        # blind switch would do.
        self.frontends: list[Resource] = [
            Resource(self.sim, f"frontend{i}")
            for i in range(self.params.n_frontends)
        ]
        self.frontend_cpu = self.frontends[0]
        self.replicator = replicator
        self._connections: dict[int, ConnectionState] = {}
        #: per-connection requests not yet completed (Counter: the
        #: per-request pre-pass counts at C speed)
        self._remaining_per_conn: Counter[int] = Counter()
        #: injection mode: connections close only on close_connection()
        self._explicit_close = trace is None
        self._closing: set[int] = set()
        if trace is not None:
            # Full per-connection request counts, known before the first
            # event: a connection's close hook fires when its *last*
            # request completes, which no bounded-lookahead stream could
            # learn in time.  Every source supplies the counts from its
            # summary, not a second request pass.
            self._remaining_per_conn.update(trace.connection_counts())
        self._ran = False
        self.tracer = tracer
        #: set by :meth:`SimulationAuditor.attach`
        self.auditor: "SimulationAuditor | None" = None
        if auditor is not None:
            auditor.attach(self)
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self)
        self.failures = failures
        if failures is not None:
            failures.install(self)
        policy.bind(self)
        if replicator is not None:
            replicator.bind(self)
        # Hot-path constants and pre-bound stage callbacks (one bound
        # method per stage for the whole run).
        p = self.params
        self._parse_s = p.frontend_parse_s
        self._dispatch_s = p.dispatch_s
        self._handoff_s = p.handoff_s
        self._conn_latency_s = p.connection_latency_s
        self._persistent = policy.persistent_connections
        self._n_servers = len(self.servers)
        self._single_frontend = (self.frontends[0]
                                 if len(self.frontends) == 1 else None)
        self._after_frontend_cb = self._after_frontend
        self._deliver_cb = self._deliver
        self._flow_done_cb = self._flow_done

    # -- ClusterView protocol ----------------------------------------------

    @property
    def catalog(self) -> Mapping[str, int]:
        return self._catalog

    @property
    def now(self) -> float:
        return self.sim.now

    # -- run -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay the whole trace and drain the system."""
        if self.trace is None:
            raise RuntimeError(
                "injection-mode cluster: drive it via inject() and call "
                "result() when the calendar drains"
            )
        if self._ran:
            raise RuntimeError("a ClusterSimulator instance runs once")
        self._ran = True
        trace = self.trace
        # Reserve the sequence block an eager schedule would have used,
        # then stream the arrivals in one at a time (or, eagerly, all
        # at once).
        base_seq = self.sim.reserve_sequences(len(trace))
        self._arrival_pump = _ArrivalPump(self, trace, base_seq,
                                          self._eager_arrivals)
        if self.replicator is not None:
            self.replicator.start()
        self.sim.run()
        return self._result()

    # -- injection mode (closed-loop drivers) --------------------------------

    def inject(
        self, req: Request, on_complete: CompletionCallback | None = None
    ) -> None:
        """Present one request to the front end *now* (injection mode).

        ``req.arrival`` should equal the current simulation time; the
        connection stays open until :meth:`close_connection`.
        ``on_complete(server_id, hit)`` fires when the response is done —
        closed-loop drivers use it to pace the next request.
        """
        self._remaining_per_conn[req.conn_id] += 1
        # The callback travels with this injection's flow slot (one live
        # slot per in-flight request), so injecting the same Request
        # object twice — or an id()-recycled one — cannot cross wires.
        self._on_arrival(req, on_complete)

    def close_connection(self, conn_id: int) -> None:
        """Declare a connection finished (injection mode).

        The policy's close hook fires once all of the connection's
        in-flight requests complete.
        """
        if self._remaining_per_conn.get(conn_id, 0) == 0:
            self.policy.on_connection_close(conn_id)
            self._connections.pop(conn_id, None)
            self._closing.discard(conn_id)
        else:
            self._closing.add(conn_id)

    def result(self) -> SimulationResult:
        """Assemble the result (injection mode, after the run drains)."""
        return self._result()

    def _on_arrival(
        self, req: Request, on_complete: CompletionCallback | None = None
    ) -> None:
        """Route one request, pricing its service times on the spot.

        The trace path goes through the pump, which batch-prices whole
        chunks instead; the scalar methods here produce bit-identical
        values (same expressions, same operation order).
        """
        params = self.params
        self._route_request(req, on_complete,
                            params.transmit_s(req.size),
                            params.disk_service_s(req.size))

    def _route_request(
        self,
        req: Request,
        on_complete: CompletionCallback | None,
        tx_s: float,
        disk_s: float,
    ) -> None:
        now = self.sim.now
        if self.replicator is not None:
            self.replicator.observe(req.path, now)
        if self.tracer is not None:
            self.tracer.emit(now, "arrival", req.conn_id, req.path,
                             embedded=req.is_embedded, dynamic=req.dynamic)
        if self.auditor is not None:
            self.auditor.note_arrival(req)
        decision = self.policy.route(req)
        server_id = decision.server_id
        if not 0 <= server_id < self._n_servers:
            raise ValueError(
                f"policy routed to unknown server {server_id}"
            )
        conn_id = req.conn_id
        conn = self._connections.get(conn_id)
        if conn is None:
            conn = ConnectionState(conn_id=conn_id)
            self._connections[conn_id] = conn
        relay = decision.forwarded and conn.server_id is not None
        if self._persistent:
            setup = conn.requests_seen == 0
            handoff = conn.server_id != server_id and not relay
        else:
            # HTTP/1.0-style: every request is its own connection and
            # gets its own handoff.
            setup = True
            handoff = True
        metrics = self.metrics
        # Front-end CPU work: request analysis, dispatcher contact, and —
        # crucially for the distributor-bottleneck story (§4.2) — the TCP
        # handoff, which migrates connection state and burns 200 µs of
        # distributor time per handed-off request.
        service = self._parse_s
        if decision.dispatched:
            metrics.dispatches += 1
            service += self._dispatch_s
        if handoff:
            metrics.handoffs += 1
            service += self._handoff_s

        # Pure network latency added after the front-end work.
        latency = 0.0
        if setup:
            metrics.connections += 1
            latency += self._conn_latency_s
        if relay:
            # Backend-forwarding: the connection stays at its bound
            # backend; the response is relayed over the interconnect.
            latency += tx_s
        else:
            conn.server_id = server_id
        conn.requests_seen += 1

        f = self.flows
        free = f.free
        slot = free.pop() if free else f._grow()
        f.path[slot] = req.path
        f.size[slot] = req.size
        f.dynamic[slot] = req.dynamic
        f.hit[slot] = False
        f.tx_s[slot] = tx_s
        f.disk_s[slot] = disk_s
        f.finish[slot] = self._flow_done_cb
        f.req[slot] = req
        f.server[slot] = self.servers[server_id]
        f.latency[slot] = latency
        f.on_complete[slot] = on_complete

        if self.tracer is not None:
            self.tracer.emit(
                now, "routed", conn_id, req.path,
                server=server_id, dispatched=decision.dispatched,
                handoff=handoff, setup=setup, relay=relay,
                prefetches=len(decision.prefetches),
            )
        frontend = self._single_frontend
        if frontend is None:
            frontend = self.frontends[conn_id % len(self.frontends)]
        frontend.submit(service, self._after_frontend_cb, arg=slot)
        if decision.prefetches:
            self._issue_prefetches(decision)

    def _after_frontend(self, slot: int) -> None:
        latency = self.flows.latency[slot]
        if latency > 0:
            self.sim.schedule(latency, self._deliver_cb, slot)
        else:
            self._deliver(slot)

    def _deliver(self, slot: int) -> None:
        server = self.flows.server[slot]
        self.loads[server.server_id] += 1  # type: ignore[union-attr]
        server.start_flow(slot)  # type: ignore[union-attr]

    def _flow_done(self, slot: int, server_id: int, hit: bool) -> None:
        f = self.flows
        req = f.req[slot]
        on_complete = f.on_complete[slot]
        f.release(slot)
        self.loads[server_id] -= 1
        now = self.sim.now
        if self.tracer is not None:
            self.tracer.emit(now, "complete", req.conn_id, req.path,
                             server=server_id, hit=hit,
                             response_s=now - (req.arrival - self._t0))
        self.metrics.record_completion(req, now, server_id, hit)
        if self.auditor is not None:
            self.auditor.note_completion(req, server_id, hit)
        self.policy.on_complete(req, server_id, hit)
        if on_complete is not None:
            on_complete(server_id, hit)
        remaining = self._remaining_per_conn
        conn_id = req.conn_id
        left = remaining[conn_id] - 1
        remaining[conn_id] = left
        if left == 0 and (not self._explicit_close
                          or conn_id in self._closing):
            self.policy.on_connection_close(conn_id)
            self._connections.pop(conn_id, None)
            self._closing.discard(conn_id)

    def _issue_prefetches(self, decision: RoutingDecision) -> None:
        for directive in decision.prefetches:
            size = self._catalog.get(directive.path)
            if size is None or size <= 0:
                continue
            self.servers[directive.server_id].prefetch(directive.path, size)

    # -- result ------------------------------------------------------------------

    def _result(self) -> SimulationResult:
        elapsed = self.sim.now if self.sim.now > 0 else 1.0
        self.metrics.prefetches_issued = sum(
            s.prefetches_issued for s in self.servers
        )
        self.metrics.prefetch_useful = sum(
            s.prefetch_useful for s in self.servers
        )
        warmup_until = self.warmup_fraction * self.window_s
        return SimulationResult(
            policy_name=self.policy.name,
            trace_name=(self.trace.name if self.trace is not None
                        else "closed-loop"),
            n_backends=self.params.n_backends,
            report=self.metrics.report(
                warmup_until=warmup_until,
                window_end=self.window_s,
            ),
            frontend_utilization=max(
                f.utilization(elapsed) for f in self.frontends
            ),
            server_utilizations=tuple(
                s.utilization(elapsed) for s in self.servers
            ),
            warmup_until=warmup_until,
            dispatcher_lookups=self.dispatcher.lookups,
            audit=(self.auditor.finalize()
                   if self.auditor is not None else None),
        )

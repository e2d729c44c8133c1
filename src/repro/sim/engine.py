"""Discrete-event simulation engine.

A minimal, deterministic event core: a binary-heap calendar of
``(time, sequence, callback, arg)`` entries.  Sequence numbers break
ties so simultaneous events fire in scheduling order, which keeps every
run bit-reproducible — a property the regression tests rely on.

The hot loop is deliberately allocation-light: :meth:`Simulator.run`
binds the heap, ``heappop`` and the observation hook to locals and pops
each entry exactly once (peeking only through the popped tuple), and
callers that stream bounded lookahead windows into the calendar (the
cluster's arrival pump) can pre-reserve sequence-number blocks so late
pushes keep the exact tie-break order an eager up-front schedule would
have produced.

Calendar entries carry an optional ``arg`` delivered to the callback.
This is the struct-of-arrays hook: instead of allocating a per-request
record (or a fresh bound method) per event, hot-path components keep
one long-lived bound method per *stage* and pass an integer slot index
into parallel state arrays (see :mod:`repro.sim.soa`), so steady-state
event traffic allocates nothing.

:class:`Resource` models a single-server queueing station (CPU, disk,
NIC) with priority classes: demand work preempts *queued* (never
in-service) prefetch work, matching how a real server would schedule
low-priority readahead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

__all__ = ["Simulator", "Resource", "PRIORITY_DEMAND", "PRIORITY_PREFETCH"]

#: Priority classes for :class:`Resource` jobs (lower value = served first).
PRIORITY_DEMAND = 0
PRIORITY_PREFETCH = 1


class Simulator:
    """The event calendar and clock.

    All times are in **seconds** (floats); component cost models convert
    from the paper's µs/ms constants at the edges.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], object]] = []
        self._seq = 0
        self.now: float = 0.0
        self._events_processed = 0
        self._high_water = 0
        #: Optional observation hook fired after every processed event
        #: with the event's time.  Pure observation — the hook must not
        #: schedule events or mutate state, so attaching one (the
        #: simulation auditor does) cannot perturb a run.  Install hooks
        #: with :meth:`observe`, *before* calling :meth:`run`: the loop
        #: binds the hook once on entry.
        self.on_event: Callable[[float], None] | None = None

    def observe(self, hook: Callable[[float], None]) -> None:
        """Add an observation hook, run after any already installed.

        Every observer attaches here, so observers coexist in any
        attach order and each sees every event.
        """
        previous = self.on_event
        if previous is None:
            self.on_event = hook
            return

        def chained(time: float) -> None:
            previous(time)
            hook(time)

        self.on_event = chained

    def schedule_at(
        self, time: float, fn: Callable[..., None], arg: object = None
    ) -> None:
        """Run ``fn`` when the clock reaches ``time``.

        ``arg`` (optional) is delivered as ``fn(arg)``; ``None`` means
        call ``fn()`` — callbacks that genuinely want to receive ``None``
        must close over it instead.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, fn, arg))
        if len(heap) > self._high_water:
            self._high_water = len(heap)

    def schedule(
        self, delay: float, fn: Callable[..., None], arg: object = None
    ) -> None:
        """Run ``fn`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.schedule_at(self.now + delay, fn, arg)

    # -- reserved sequence blocks (streaming schedulers) ---------------------

    def reserve_sequences(self, n: int) -> int:
        """Claim a block of ``n`` consecutive sequence numbers.

        Returns the first number of the block.  A streaming scheduler
        that knows its events' relative order up front (the arrival
        pump) reserves the block once and pushes each event with its
        pre-assigned number via :meth:`schedule_at_reserved`; events
        scheduled later by anyone else draw numbers *after* the block,
        so the global ``(time, seq)`` order is exactly what eagerly
        scheduling the whole block up front would have produced.
        """
        if n < 0:
            raise ValueError(f"cannot reserve {n} sequence numbers")
        start = self._seq
        self._seq = start + n
        return start

    def schedule_at_reserved(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        arg: object = None,
    ) -> None:
        """Push an event carrying a pre-reserved sequence number."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        heap = self._heap
        heapq.heappush(heap, (time, seq, fn, arg))
        if len(heap) > self._high_water:
            self._high_water = len(heap)

    # -- the loop ------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Process events until the calendar empties (or ``until``).

        The loop pops each calendar entry exactly once; when ``until``
        cuts the run short, the one overshooting entry is pushed back.
        ``until`` earlier than the clock is an error (the clock never
        moves backwards).  The observation hook is bound on entry —
        install ``on_event`` before calling.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until the past: {until} < now {self.now}"
            )
        heap = self._heap
        pop = heapq.heappop
        on_event = self.on_event
        if until is None and on_event is None:
            # Fast path: full drain, no observer.  Nothing can read
            # ``events_processed`` mid-drain (observers are the only
            # readers inside a run), so the counter rides a local and
            # is flushed once — even if a callback raises.
            n = 0
            try:
                while heap:
                    time, _, fn, arg = pop(heap)
                    self.now = time
                    n += 1
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
            finally:
                self._events_processed += n
        elif until is None:
            # Observers may read ``events_processed`` from inside the
            # hook (the telemetry timeline does), so the counter is kept
            # on the instance, not in a loop local.
            while heap:
                time, _, fn, arg = pop(heap)
                self.now = time
                self._events_processed += 1
                if arg is None:
                    fn()
                else:
                    fn(arg)
                on_event(time)
        else:
            while heap:
                entry = pop(heap)
                time = entry[0]
                if time > until:
                    heapq.heappush(heap, entry)
                    self.now = until
                    return
                self.now = time
                self._events_processed += 1
                arg = entry[3]
                if arg is None:
                    entry[2]()
                else:
                    entry[2](arg)
                if on_event is not None:
                    on_event(time)
            self.now = max(self.now, until)

    def step(self) -> bool:
        """Process one event; returns False when the calendar is empty."""
        if not self._heap:
            return False
        time, _, fn, arg = heapq.heappop(self._heap)
        self.now = time
        self._events_processed += 1
        if arg is None:
            fn()
        else:
            fn(arg)
        if self.on_event is not None:
            self.on_event(time)
        return True

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def calendar_high_water(self) -> int:
        """Peak calendar size so far — the engine's memory-footprint
        proxy.  With the streaming arrival pump this stays bounded by
        the lookahead window plus in-flight work, not the trace length;
        the core benchmark asserts exactly that."""
        return self._high_water


@dataclass(slots=True)
class _Job:
    service_time: float
    done: Callable[..., None]
    priority: int
    seq: int
    arg: object = None
    started: bool = False

    def sort_key(self) -> tuple[int, int]:
        return (self.priority, self.seq)


class Resource:
    """A single-server FIFO station with priority classes.

    Jobs are served one at a time; among the queued jobs the lowest
    ``(priority, arrival-order)`` goes next.  Jobs already in service are
    never preempted.  Utilisation bookkeeping feeds the stats layer.
    """

    def __init__(self, sim: Simulator, name: str = "resource") -> None:
        self.sim = sim
        self.name = name
        self._queue: list[tuple[tuple[int, int], _Job]] = []
        self._busy = False
        self._seq = 0
        self.busy_time: float = 0.0
        self.jobs_served = 0
        self._service_started = 0.0
        # Completion target of the in-service job.  Kept as two plain
        # slots instead of a _Job record: an idle-station submit — the
        # common case — then allocates nothing at all.
        self._cur_done: Callable[..., None] | None = None
        self._cur_arg: object = None
        # Pre-bound completion callback: one bound-method object reused
        # for every job instead of a fresh closure per service.
        self._finish_cb = self._finish

    def submit(
        self,
        service_time: float,
        done: Callable[..., None],
        *,
        priority: int = PRIORITY_DEMAND,
        arg: object = None,
    ) -> _Job | None:
        """Enqueue a job; ``done`` fires when its service completes
        (as ``done(arg)`` when ``arg`` is not ``None``).

        Returns a job handle usable with :meth:`promote` when the job
        had to queue; a job started immediately (idle station) returns
        ``None`` — an in-service job can never be promoted anyway.
        """
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        if self._busy:
            seq = self._seq
            self._seq = seq + 1
            job = _Job(service_time, done, priority, seq, arg)
            heapq.heappush(self._queue, ((priority, seq), job))
            return job
        # An idle station never holds queued jobs, so the new job is the
        # head by construction — start it with no _Job record and no
        # queue traffic.  The completion event is pushed inline
        # (``schedule_at`` sans the cannot-schedule-in-the-past check:
        # ``now + service_time >= now`` by construction).
        self._busy = True
        self._cur_done = done
        self._cur_arg = arg
        sim = self.sim
        self._service_started = now = sim.now
        seq = sim._seq
        sim._seq = seq + 1
        heap = sim._heap
        heapq.heappush(heap, (now + service_time, seq, self._finish_cb, None))
        if len(heap) > sim._high_water:
            sim._high_water = len(heap)
        return None

    def promote(
        self, job: _Job | None, priority: int = PRIORITY_DEMAND
    ) -> bool:
        """Raise a *queued* job's priority (e.g. a prefetch read that a
        demand request coalesced onto).  No effect once service started
        (``None`` — the handle of a job that started on submit — is
        accepted and refused) or when the job already has equal/higher
        priority."""
        if job is None or job.started or priority >= job.priority:
            return False
        job.priority = priority
        # Lazy rebuild: cheap relative to event processing and rare.
        self._queue = [(j.sort_key(), j) for _, j in self._queue]
        heapq.heapify(self._queue)
        return True

    def _finish(self) -> None:
        sim = self.sim
        self.busy_time += sim.now - self._service_started
        self.jobs_served += 1
        done = self._cur_done
        arg = self._cur_arg
        queue = self._queue
        # Start the next job before the completion callback so a
        # callback that re-submits cannot starve the queue head.
        if queue:
            _, job = heapq.heappop(queue)
            job.started = True
            self._cur_done = job.done
            self._cur_arg = job.arg
            self._service_started = now = sim.now
            seq = sim._seq
            sim._seq = seq + 1
            heap = sim._heap
            heapq.heappush(
                heap, (now + job.service_time, seq, self._finish_cb, None)
            )
            if len(heap) > sim._high_water:
                sim._high_water = len(heap)
        else:
            self._busy = False
            self._cur_done = None
            self._cur_arg = None
        if arg is None:
            done()  # type: ignore[misc]
        else:
            done(arg)  # type: ignore[misc]

    @property
    def queue_length(self) -> int:
        """Jobs waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def cumulative_busy_s(self) -> float:
        """Total busy seconds so far, including the in-service span.

        Monotone non-decreasing in simulated time, which lets samplers
        (the telemetry timeline) difference consecutive snapshots to get
        exact per-window busy time.  This is the one place the
        in-service-span accounting lives; :meth:`busy_fraction` and
        :meth:`utilization` are views over it.
        """
        busy = self.busy_time
        if self._busy:
            busy += self.sim.now - self._service_started
        return busy

    def busy_fraction(self, elapsed: float) -> float:
        """Raw busy time over ``elapsed``, **unclamped**.

        A single-server station can never be busy for longer than the
        elapsed wall-clock, so a value above 1.0 is an accounting bug —
        the simulation auditor asserts exactly that.  Reports use the
        clamped :meth:`utilization` view.
        """
        if elapsed <= 0:
            return 0.0
        return self.cumulative_busy_s / elapsed

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving (current job included)."""
        return min(1.0, self.busy_fraction(elapsed))

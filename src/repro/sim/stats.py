"""Metrics collection and reporting for cluster simulations.

The paper's evaluation metrics (§5.2): *average response time*,
*throughput* (requests completed per unit time, summed over backends),
*frequency of dispatches* (Fig. 6), and cache hit rates.  The collector
records per-request completions plus event counters; reports can exclude
a warm-up prefix so cold-cache compulsory misses do not drown
steady-state behaviour.

The statistics are computed in plain Python, in the association order
numpy uses (:func:`_pairwise_sum`, :func:`_linear_percentile`): every
report is bit-identical to what ``numpy.mean``/``median``/``percentile``
compute, and replaying a saved workload needs no numpy import.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

from ..logs.records import Request

__all__ = ["CompletionRecord", "SimulationReport", "MetricsCollector"]


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """``values[start:start + n]`` summed as numpy sums a float64 array.

    numpy's pairwise summation: fewer than 8 values take a running sum;
    up to 128 take eight interleaved accumulators, combined pairwise,
    then the tail; a larger block splits at a multiple of 8 near its
    middle and recurses.  Keeping that association order keeps a mean
    bit-identical to ``numpy.mean``.
    """
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        end = start + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(values, start, half)
            + _pairwise_sum(values, start + half, n - half))


def _median(ordered: list[float]) -> float:
    """``numpy.median`` of the sorted, non-empty ``ordered``."""
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _linear_percentile(ordered: list[float], q: float) -> float:
    """``numpy.percentile(values, q)`` (its default ``linear`` method)
    of the sorted, non-empty ``ordered``."""
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    below = math.floor(virtual)
    gamma = virtual - below
    a = ordered[below]
    b = ordered[below + 1] if below + 1 < n else a
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One served request."""

    arrival: float
    completion: float
    server_id: int
    hit: bool
    dynamic: bool
    size: int

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Aggregated metrics over (post-warm-up) completions."""

    #: completions whose request arrived after warm-up — the population
    #: behind the response-time/hit-rate/throughput statistics.
    completed: int
    #: completions over the whole run, warm-up included.  Event
    #: counters (dispatches, handoffs, ...) are whole-run totals, so
    #: per-request ratios must normalise by this count, not
    #: ``completed`` — mixing the windows inflated dispatches/request.
    all_completed: int
    #: completions inside the offered-load window / window length — the
    #: paper's "summation of the number of requests processed by each of
    #: the backend servers" over the measured interval.
    throughput_rps: float
    #: drain throughput: completions / (last completion − window start).
    #: A policy that leaves a backlog takes longer to finish the same
    #: request set and scores lower on this alternative reading.
    drain_throughput_rps: float
    mean_response_s: float
    median_response_s: float
    p95_response_s: float
    p99_response_s: float
    hit_rate: float
    dispatches: int
    handoffs: int
    connections: int
    prefetches_issued: int
    prefetch_useful: int
    replicated_bytes: int
    makespan_s: float
    per_server_completed: tuple[int, ...]

    @property
    def dispatch_frequency(self) -> float:
        """Dispatches per served request (Fig. 6, normalised).

        Both counts cover the whole run: ``dispatches`` is a run total,
        so it is divided by run-total completions — dividing by the
        post-warm-up ``completed`` would overstate dispatches/request.
        """
        if not self.all_completed:
            return 0.0
        return self.dispatches / self.all_completed

    @property
    def prefetch_precision(self) -> float:
        """Fraction of issued prefetches later hit by demand."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetch_useful / self.prefetches_issued

    @property
    def load_imbalance(self) -> float:
        """max/mean per-server completions (1.0 = perfectly balanced)."""
        counts = [float(c) for c in self.per_server_completed]
        if not counts:
            return 0.0
        mean = _pairwise_sum(counts, 0, len(counts)) / len(counts)
        if mean == 0:
            return 0.0
        return max(counts) / mean

    def row(self) -> str:
        """One formatted table row for the experiment harness."""
        return (
            f"thr={self.throughput_rps:9.1f} rps  "
            f"resp={self.mean_response_s * 1e3:8.2f} ms  "
            f"p50={self.median_response_s * 1e3:7.2f}  "
            f"p95={self.p95_response_s * 1e3:7.2f}  "
            f"p99={self.p99_response_s * 1e3:8.2f} ms  "
            f"hit={self.hit_rate:6.1%}  "
            f"disp/req={self.dispatch_frequency:5.2f}"
        )


class MetricsCollector:
    """Accumulates completions and event counters during a run.

    Completions are stored struct-of-arrays — six parallel scalar
    columns instead of a :class:`CompletionRecord` per request — so the
    hot path appends plain floats/ints and the report aggregates them
    in one pass, with numpy's summation and percentile rules.  The
    :attr:`records` view materialises the record objects on demand for
    tests and ad-hoc analysis.

    The columns are the one structure of a streamed replay that grows
    with the trace, so they are compact: times in ``array("d")``, the
    hit and dynamic flags in one byte each, server ids in ``array("i")``
    — about 31 bytes per completion, against 97 for boxed floats in
    lists (DESIGN.md §12).  Sizes stay a list of the readers' shared
    ints: a CLF size may exceed any fixed-width integer.  Every value
    reads back exactly as recorded (flags as ``0``/``1``), so the
    report is unchanged.

    ``t0`` is the trace time of simulated time zero: a completion's
    arrival is recorded as ``request.arrival - t0``, the simulated time
    the request reached the front end.  The cluster passes its trace's
    start, since it routes the trace's own requests unrebased.
    """

    def __init__(self, n_servers: int, *, t0: float = 0.0) -> None:
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        self.n_servers = n_servers
        self._t0 = t0
        self._arrival = array("d")
        self._completion = array("d")
        self._server = array("i")
        self._hit = bytearray()
        self._dynamic = bytearray()
        self._size: list[int] = []
        # Bound appends: record_completion runs once per served request.
        self._push_arrival = self._arrival.append
        self._push_completion = self._completion.append
        self._push_server = self._server.append
        self._push_hit = self._hit.append
        self._push_dynamic = self._dynamic.append
        self._push_size = self._size.append
        self.dispatches = 0
        self.handoffs = 0
        self.connections = 0
        self.prefetches_issued = 0
        self.prefetch_useful = 0
        self.replicated_bytes = 0
        self.first_arrival: float | None = None

    # -- recording ------------------------------------------------------------

    def record_completion(
        self,
        request: Request,
        completion: float,
        server_id: int,
        hit: bool,
    ) -> None:
        if not 0 <= server_id < self.n_servers:
            raise ValueError(f"server_id {server_id} out of range")
        arrival = request.arrival - self._t0
        if completion < arrival:
            raise ValueError("completion precedes arrival")
        first = self.first_arrival
        if first is None or arrival < first:
            self.first_arrival = arrival
        self._push_arrival(arrival)
        self._push_completion(completion)
        self._push_server(server_id)
        self._push_hit(hit)
        self._push_dynamic(request.dynamic)
        self._push_size(request.size)

    def count_dispatch(self) -> None:
        self.dispatches += 1

    def count_handoff(self) -> None:
        self.handoffs += 1

    def count_connection(self) -> None:
        self.connections += 1

    def count_prefetch_issued(self) -> None:
        self.prefetches_issued += 1

    def count_prefetch_useful(self) -> None:
        self.prefetch_useful += 1

    def count_replicated_bytes(self, n: int) -> None:
        self.replicated_bytes += n

    @property
    def completed(self) -> int:
        return len(self._arrival)

    @property
    def records(self) -> Sequence[CompletionRecord]:
        """Materialised per-completion records (built on demand)."""
        return [
            CompletionRecord(a, c, s, bool(h), bool(d), z)
            for a, c, s, h, d, z in zip(
                self._arrival, self._completion, self._server,
                self._hit, self._dynamic, self._size,
            )
        ]

    # -- reporting ------------------------------------------------------------

    def report(
        self,
        *,
        warmup_until: float = 0.0,
        window_end: float | None = None,
    ) -> SimulationReport:
        """Aggregate over completions whose request arrived after warm-up.

        ``window_end`` bounds the throughput measurement window (the
        offered-load interval, normally the trace duration): throughput
        counts only requests *completed* inside the window, divided by
        the window length.  An overloaded policy leaves a backlog at
        window end and scores lower — the paper's "requests processed by
        each of the backend servers" reading.  Response-time and
        hit-rate statistics cover all post-warm-up completions.

        Event counters (dispatches, handoffs, ...) are run totals — the
        paper's Fig. 6 counts dispatches over the whole trace.
        """
        arrivals = self._arrival
        all_completed = len(arrivals)
        # One pass over the columns: the post-warm-up response times, in
        # completion order (the mean's summation order), and the counts.
        responses: list[float] = []
        push = responses.append
        per_server = [0] * self.n_servers
        hits = in_window = 0
        last = -math.inf
        limit = math.inf if window_end is None else window_end
        for arrival, completion, server, hit in zip(
            arrivals, self._completion, self._server, self._hit,
        ):
            if arrival >= warmup_until:
                push(completion - arrival)
                per_server[server] += 1
                if hit:
                    hits += 1
                if completion > last:
                    last = completion
                if completion <= limit:
                    in_window += 1
        n = len(responses)
        if n == 0:
            return SimulationReport(
                completed=0, all_completed=all_completed,
                throughput_rps=0.0, drain_throughput_rps=0.0,
                mean_response_s=0.0,
                median_response_s=0.0, p95_response_s=0.0,
                p99_response_s=0.0, hit_rate=0.0,
                dispatches=self.dispatches, handoffs=self.handoffs,
                connections=self.connections,
                prefetches_issued=self.prefetches_issued,
                prefetch_useful=self.prefetch_useful,
                replicated_bytes=self.replicated_bytes,
                makespan_s=0.0,
                per_server_completed=(0,) * self.n_servers,
            )
        start = max(warmup_until,
                    self.first_arrival if self.first_arrival else 0.0)
        makespan = last - start
        drain_throughput = n / makespan if makespan > 0 else 0.0
        if window_end is not None and window_end > start:
            throughput = in_window / (window_end - start)
        else:
            throughput = drain_throughput
        mean = _pairwise_sum(responses, 0, n) / n
        responses.sort()
        return SimulationReport(
            completed=n,
            all_completed=all_completed,
            throughput_rps=throughput,
            drain_throughput_rps=drain_throughput,
            mean_response_s=mean,
            median_response_s=_median(responses),
            p95_response_s=_linear_percentile(responses, 95),
            p99_response_s=_linear_percentile(responses, 99),
            hit_rate=hits / n,
            dispatches=self.dispatches,
            handoffs=self.handoffs,
            connections=self.connections,
            prefetches_issued=self.prefetches_issued,
            prefetch_useful=self.prefetch_useful,
            replicated_bytes=self.replicated_bytes,
            makespan_s=makespan,
            per_server_completed=tuple(per_server),
        )

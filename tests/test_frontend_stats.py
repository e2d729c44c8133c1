"""Tests for the dispatcher locality table and the metrics collector."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.logs import Request
from repro.sim import Dispatcher, MetricsCollector, SimulationReport


def req(t=0.0, conn=0, path="/a", size=100, **kw):
    return Request(arrival=t, conn_id=conn, path=path, size=size, **kw)


class TestDispatcher:
    def test_insert_lookup_evict(self):
        d = Dispatcher()
        d.on_insert(0, "/a")
        d.on_insert(1, "/a")
        assert d.lookup("/a") == {0, 1}
        d.on_evict(0, "/a")
        assert d.lookup("/a") == {1}
        d.on_evict(1, "/a")
        assert d.lookup("/a") == frozenset()
        assert d.lookups == 3

    def test_evict_unknown_is_noop(self):
        d = Dispatcher()
        d.on_evict(0, "/nope")
        assert d.lookup("/nope") == frozenset()

    def test_peek_not_counted(self):
        d = Dispatcher()
        d.on_insert(0, "/a")
        assert d.peek("/a") == {0}
        assert d.lookups == 0

    def test_holder_count_and_tracked(self):
        d = Dispatcher()
        d.on_insert(0, "/a")
        d.on_insert(1, "/a")
        d.on_insert(0, "/b")
        assert d.holder_count("/a") == 2
        assert d.holder_count("/zzz") == 0
        assert d.tracked_paths() == 2


class TestMetricsCollector:
    def test_requires_servers(self):
        with pytest.raises(ValueError):
            MetricsCollector(0)

    def test_record_validation(self):
        m = MetricsCollector(2)
        with pytest.raises(ValueError, match="out of range"):
            m.record_completion(req(), 1.0, 5, True)
        with pytest.raises(ValueError, match="precedes"):
            m.record_completion(req(t=2.0), 1.0, 0, True)

    def test_empty_report(self):
        m = MetricsCollector(2)
        r = m.report()
        assert r.completed == 0
        assert r.throughput_rps == 0.0
        assert r.load_imbalance == 0.0
        assert r.dispatch_frequency == 0.0
        assert r.prefetch_precision == 0.0

    def test_basic_aggregation(self):
        m = MetricsCollector(2)
        m.record_completion(req(t=0.0, path="/a"), 1.0, 0, True)
        m.record_completion(req(t=1.0, path="/b"), 3.0, 1, False)
        r = m.report()
        assert r.completed == 2
        assert r.hit_rate == 0.5
        assert r.mean_response_s == pytest.approx(1.5)
        assert r.per_server_completed == (1, 1)
        assert r.makespan_s == pytest.approx(3.0)
        assert r.throughput_rps == pytest.approx(2 / 3.0)

    def test_warmup_excludes_early(self):
        m = MetricsCollector(1)
        m.record_completion(req(t=0.0), 0.5, 0, False)
        m.record_completion(req(t=10.0), 10.5, 0, True)
        r = m.report(warmup_until=5.0)
        assert r.completed == 1
        assert r.hit_rate == 1.0

    def test_window_throughput(self):
        m = MetricsCollector(1)
        # 3 requests complete inside a 10 s window, one long after it.
        for t in (1.0, 2.0, 3.0):
            m.record_completion(req(t=t), t + 0.1, 0, True)
        m.record_completion(req(t=4.0), 50.0, 0, False)
        r = m.report(window_end=10.0)
        # The window starts at the first arrival (t=1).
        assert r.throughput_rps == pytest.approx(3 / 9.0)
        # Drain throughput spans until the last completion.
        assert r.drain_throughput_rps == pytest.approx(4 / 49.0)

    def test_counters_are_run_totals(self):
        m = MetricsCollector(1)
        m.count_dispatch()
        m.count_dispatch()
        m.count_handoff()
        m.count_connection()
        m.count_prefetch_issued()
        m.count_prefetch_useful()
        m.count_replicated_bytes(100)
        m.record_completion(req(t=10.0), 11.0, 0, True)
        r = m.report(warmup_until=5.0)
        assert r.dispatches == 2
        assert r.handoffs == 1
        assert r.connections == 1
        assert r.replicated_bytes == 100

    def test_dispatch_frequency(self):
        m = MetricsCollector(1)
        for _ in range(4):
            m.count_dispatch()
        m.record_completion(req(t=0.0), 1.0, 0, True)
        m.record_completion(req(t=0.5, conn=1), 1.5, 0, True)
        assert m.report().dispatch_frequency == pytest.approx(2.0)

    def test_dispatch_frequency_ignores_warmup_window(self):
        # Dispatches are a whole-run counter, so the ratio must divide
        # by whole-run completions (all_completed), not the post-warm-up
        # population — mixing windows overstated dispatches/request.
        m = MetricsCollector(1)
        for _ in range(4):
            m.count_dispatch()
        for i, t in enumerate((0.0, 2.0, 6.0, 8.0)):
            m.record_completion(req(t=t, conn=i), t + 1.0, 0, True)
        r = m.report(warmup_until=5.0)
        assert r.completed == 2
        assert r.all_completed == 4
        assert r.dispatch_frequency == pytest.approx(1.0)

    def test_load_imbalance(self):
        m = MetricsCollector(2)
        m.record_completion(req(t=0.0), 1.0, 0, True)
        m.record_completion(req(t=0.0, conn=1), 1.0, 0, True)
        m.record_completion(req(t=0.0, conn=2), 1.0, 1, True)
        r = m.report()
        assert r.load_imbalance == pytest.approx(2 / 1.5)

    def test_prefetch_precision(self):
        m = MetricsCollector(1)
        m.prefetches_issued = 4
        m.prefetch_useful = 3
        m.record_completion(req(), 1.0, 0, True)
        assert m.report().prefetch_precision == pytest.approx(0.75)

    def test_row_formatting(self):
        m = MetricsCollector(1)
        m.record_completion(req(), 1.0, 0, True)
        row = m.report().row()
        assert "rps" in row and "hit" in row


class TestCompletionColumns:
    """The completion columns grow with the trace, so they stay compact,
    and read back exactly what was recorded."""

    def test_bytes_per_completion(self):
        n = 10_000
        requests = [req(t=k / 64, size=512 + k % 7, dynamic=k % 3 == 0)
                    for k in range(n)]
        m = MetricsCollector(8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k, r in enumerate(requests):
                # A fresh float per completion, as the engine's clock
                # makes one per event.
                m.record_completion(r, r.arrival + 0.25, k % 8, k % 2 == 0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / n <= 40, f"{grown / n:.1f} B per completion"

    def test_records_read_back_bools(self):
        m = MetricsCollector(3)
        rows = [(0.0, 1.5, 2, True, False), (1.0, 2.0, 0, False, True),
                (1.5, 4.0, 1, True, True)]
        for arrival, completion, server, hit, dynamic in rows:
            m.record_completion(req(t=arrival, size=7, dynamic=dynamic),
                                completion, server, hit)
        records = m.records
        assert [(r.arrival, r.completion, r.server_id, r.hit, r.dynamic)
                for r in records] == rows
        assert all(type(r.hit) is bool and type(r.dynamic) is bool
                   for r in records)

    def test_size_beyond_64_bits(self):
        size = 2**63 + 1
        m = MetricsCollector(1)
        m.record_completion(req(size=size), 1.0, 0, False)
        assert m.records[0].size == size
        assert m.report().completed == 1


def numpy_report(arrivals, completions, servers, hits, n_servers,
                 warmup_until, window_end):
    """The report and load imbalance as numpy computes them: the
    reference the collector's plain-Python statistics must equal."""
    a = np.array(arrivals, dtype=np.float64)
    mask = a >= warmup_until
    n = int(np.count_nonzero(mask))
    zeros = dict(dispatches=0, handoffs=0, connections=0,
                 prefetches_issued=0, prefetch_useful=0,
                 replicated_bytes=0)
    if n == 0:
        return SimulationReport(
            completed=0, all_completed=len(arrivals), throughput_rps=0.0,
            drain_throughput_rps=0.0, mean_response_s=0.0,
            median_response_s=0.0, p95_response_s=0.0, p99_response_s=0.0,
            hit_rate=0.0, makespan_s=0.0,
            per_server_completed=(0,) * n_servers, **zeros,
        ), 0.0
    c = np.array(completions, dtype=np.float64)[mask]
    responses = c - a[mask]
    per_server = np.bincount(np.array(servers, dtype=np.intp)[mask],
                             minlength=n_servers)
    first = min(arrivals)
    start = max(warmup_until, first if first else 0.0)
    makespan = float(c.max()) - start
    drain = n / makespan if makespan > 0 else 0.0
    if window_end is not None and window_end > start:
        throughput = (int(np.count_nonzero(c <= window_end))
                      / (window_end - start))
    else:
        throughput = drain
    counts = per_server.astype(float)
    imbalance = (0.0 if counts.mean() == 0
                 else float(counts.max() / counts.mean()))
    return SimulationReport(
        completed=n, all_completed=len(arrivals), throughput_rps=throughput,
        drain_throughput_rps=drain,
        mean_response_s=float(responses.mean()),
        median_response_s=float(np.median(responses)),
        p95_response_s=float(np.percentile(responses, 95)),
        p99_response_s=float(np.percentile(responses, 99)),
        hit_rate=int(np.count_nonzero(np.array(hits, dtype=bool)[mask])) / n,
        makespan_s=makespan,
        per_server_completed=tuple(int(k) for k in per_server), **zeros,
    ), imbalance


#: Column lengths around numpy's summation boundaries: its running sum
#: (under 8), one eight-accumulator block (up to 128), one split (up to
#: 256) and several levels of splits.
REPORT_SIZES = [*range(10), 127, 128, 129, 255, 256, 257, 2999, 4103]


class TestReportMatchesNumpy:
    """Every report field equals numpy's, bit for bit (exact ``==``)."""

    @pytest.mark.parametrize("n", REPORT_SIZES)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_servers=st.integers(1, 9),
        responses=st.sampled_from(["spread", "tied", "zero"]),
        warmup=st.sampled_from(["none", "random", "keep0", "keep1",
                                "keep2"]),
        window=st.sampled_from(["none", "inside", "past"]),
    )
    def test_report_equals_numpy(self, n, seed, n_servers, responses,
                                 warmup, window):
        rng = random.Random(seed)
        # Distinct dyadic arrivals, so a warm-up cut at the k-th latest
        # arrival keeps exactly k completions and a dyadic response
        # time survives ``(arrival + r) - arrival`` exactly (ties).
        arrivals = [k / 1024 for k in rng.sample(range(16 * n + 64), n)]
        if responses == "spread":
            times = [rng.expovariate(50.0) for _ in arrivals]
        elif responses == "tied":
            times = [rng.randrange(4) / 64 for _ in arrivals]
        else:
            times = [0.0] * n
        rows = sorted(
            ((a, a + r, rng.randrange(n_servers), rng.random() < 0.5)
             for a, r in zip(arrivals, times)),
            key=lambda row: row[1],
        )
        latest = sorted(arrivals, reverse=True)
        if warmup == "none":
            warmup_until = 0.0
        elif warmup == "random":
            warmup_until = rng.uniform(0.0, 16 * n / 1024 + 0.1)
        else:
            keep = int(warmup[-1])
            warmup_until = (latest[keep - 1] if 0 < keep <= n
                            else (latest[0] if latest else 0.0) + 1.0)
        window_end = None
        if window != "none" and rows:
            window_end = (rng.choice(rows)[1] if window == "inside"
                          else rows[-1][1] + 1.0)

        m = MetricsCollector(n_servers)
        for a, c, server, hit in rows:
            m.record_completion(req(t=a), c, server, hit)
        report = m.report(warmup_until=warmup_until, window_end=window_end)
        expected, imbalance = numpy_report(
            [row[0] for row in rows], [row[1] for row in rows],
            [row[2] for row in rows], [row[3] for row in rows],
            n_servers, warmup_until, window_end,
        )
        if warmup.startswith("keep") and int(warmup[-1]) <= n:
            assert report.completed == int(warmup[-1])
        assert report == expected
        assert report.load_imbalance == imbalance

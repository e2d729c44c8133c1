"""Design-choice ablations beyond the paper's Fig. 9 (DESIGN.md §7).

* prefetch confidence threshold sweep (Algorithm 2's ``Threshold``),
* dependency-graph order vs table size,
* replication interval sensitivity (Algorithm 3's ``t``),
* Ext-LARD variant: multiple-handoff vs backend-forwarding.
"""

import pytest

from repro.core import SimulationParams, run_policy
from repro.experiments import format_table
from repro.logs import page_sequences, sessionize
from repro.mining import DependencyGraph

from conftest import BENCH, run_once


class TestPrefetchThreshold:
    THRESHOLDS = (0.1, 0.35, 0.7)
    _rows = {}

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_threshold_run(self, benchmark, threshold, synthetic_loaded):
        params = SimulationParams(n_backends=BENCH.n_backends,
                                  prefetch_threshold=threshold)
        result = run_once(benchmark, lambda: run_policy(
            synthetic_loaded, "prord", params,
            cache_fraction=BENCH.cache_fraction,
            window_s=BENCH.duration_s,
        ))
        self._rows[threshold] = result
        assert result.report.completed > 0

    def test_threshold_report(self, benchmark):
        if len(self._rows) != len(self.THRESHOLDS):
            pytest.skip("sweep did not execute")
        rows = benchmark(lambda: [
            [f"{t:.2f}", f"{r.throughput_rps:.0f}",
             r.report.prefetches_issued,
             f"{r.report.prefetch_precision:.0%}"]
            for t, r in sorted(self._rows.items())
        ])
        print()
        print(format_table(
            "Ablation - prefetch confidence threshold (synthetic)",
            ["threshold", "thr (rps)", "prefetches", "precision"], rows))
        # Lower threshold must prefetch at least as aggressively.
        issued = [self._rows[t].report.prefetches_issued
                  for t in self.THRESHOLDS]
        assert issued[0] >= issued[-1]


class TestDepgraphOrder:
    def test_order_accuracy_and_memory(self, benchmark, synthetic_loaded):
        sequences = page_sequences(
            sessionize(synthetic_loaded.training_records), min_length=2)
        train = sequences[len(sequences) // 5:]

        def sweep():
            return [(order, DependencyGraph(order=order).train(train)
                     .memory_cells())
                    for order in (1, 2, 3)]

        rows = run_once(benchmark, sweep)
        print()
        print(format_table(
            "Ablation - dependency-graph order",
            ["order", "table cells"],
            [[o, c] for o, c in rows]))
        cells = [c for _, c in rows]
        assert cells == sorted(cells), "higher order must store more"


class TestReplicationInterval:
    INTERVALS = (1.0, 10.0)
    _rows = {}

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_interval_run(self, benchmark, interval, worldcup_loaded):
        params = SimulationParams(n_backends=BENCH.n_backends,
                                  replication_interval_s=interval)
        result = run_once(benchmark, lambda: run_policy(
            worldcup_loaded, "prord", params,
            cache_fraction=BENCH.cache_fraction,
            window_s=BENCH.duration_s,
        ))
        self._rows[interval] = result
        assert result.report.completed > 0

    def test_interval_report(self, benchmark):
        if len(self._rows) != len(self.INTERVALS):
            pytest.skip("sweep did not execute")
        rows = benchmark(lambda: [
            [f"{t:g}s", f"{r.throughput_rps:.0f}",
             f"{r.report.replicated_bytes / 1024:.0f} KB"]
            for t, r in sorted(self._rows.items())
        ])
        print()
        print(format_table(
            "Ablation - replication interval t (worldcup)",
            ["interval", "thr (rps)", "replicated"], rows))
        # Faster rounds replicate at least as many bytes.
        assert (self._rows[1.0].report.replicated_bytes
                >= self._rows[10.0].report.replicated_bytes)


class TestExtLARDVariants:
    _rows = {}

    @pytest.mark.parametrize("variant", ["ext-lard-phttp", "ext-lard-fwd"])
    def test_variant_run(self, benchmark, variant, cs_loaded, bench_params):
        result = run_once(benchmark, lambda: run_policy(
            cs_loaded, variant, bench_params,
            cache_fraction=BENCH.cache_fraction,
            window_s=BENCH.duration_s,
        ))
        self._rows[variant] = result
        assert result.report.completed > 0

    def test_variant_report(self, benchmark):
        if len(self._rows) != 2:
            pytest.skip("variant runs did not execute")
        rows = benchmark(lambda: [
            [v, f"{r.throughput_rps:.0f}", r.report.handoffs,
             f"{r.mean_response_s * 1e3:.1f}"]
            for v, r in self._rows.items()
        ])
        print()
        print(format_table(
            "Ablation - Ext-LARD P-HTTP variants (cs-department)",
            ["variant", "thr (rps)", "handoffs", "resp (ms)"], rows))
        # Backend forwarding must hand off far less often.
        assert (self._rows["ext-lard-fwd"].report.handoffs
                < 0.5 * self._rows["ext-lard-phttp"].report.handoffs)


class TestPrefetchTopK:
    KS = (1, 3)
    _rows = {}

    @pytest.mark.parametrize("top_k", KS)
    def test_top_k_run(self, benchmark, top_k, synthetic_loaded):
        params = SimulationParams(n_backends=BENCH.n_backends,
                                  prefetch_top_k=top_k)
        result = run_once(benchmark, lambda: run_policy(
            synthetic_loaded, "prord", params,
            cache_fraction=BENCH.cache_fraction,
            window_s=BENCH.duration_s,
        ))
        self._rows[top_k] = result
        assert result.report.completed > 0

    def test_top_k_report(self, benchmark):
        if len(self._rows) != len(self.KS):
            pytest.skip("sweep did not execute")
        rows = benchmark(lambda: [
            [k, f"{r.throughput_rps:.0f}", r.report.prefetches_issued,
             f"{r.report.prefetch_precision:.0%}"]
            for k, r in sorted(self._rows.items())
        ])
        print()
        print(format_table(
            "Ablation - navigation prefetch fan-out k (synthetic)",
            ["k", "thr (rps)", "prefetches", "precision"], rows))
        # Fan-out interacts with server-side dedup and the adaptive
        # waste guard (wider guesses touch already-cached pages and trip
        # the guard sooner), so issued counts and precision are
        # reported, not ordered; both configurations must prefetch.
        assert self._rows[1].report.prefetches_issued > 0
        assert self._rows[3].report.prefetches_issued > 0

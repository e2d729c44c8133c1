"""Extension bench — cache replacement: LRU vs GDSF.

The paper's lineage ([30] GDSF) predicts GDSF beating LRU on web
traffic at scarce memory.  This bench records hit rates and throughput
for both under LARD at a small cache fraction.
"""

import pytest

from repro.core import SimulationParams, run_policy
from repro.experiments import format_table

from conftest import BENCH, run_once

POLICIES = ("lru", "gdsf")
_results = {}


@pytest.mark.parametrize("cache_policy", POLICIES)
def test_cache_policy_cell(benchmark, cache_policy, cs_loaded):
    params = SimulationParams(n_backends=BENCH.n_backends,
                              cache_policy=cache_policy)
    result = run_once(benchmark, lambda: run_policy(
        cs_loaded, "lard", params,
        cache_fraction=0.08,   # scarce memory: replacement matters
        window_s=BENCH.duration_s,
    ))
    _results[cache_policy] = result
    assert result.report.completed > 0


def test_cache_policy_report(benchmark):
    if set(_results) != set(POLICIES):
        pytest.skip("cells did not execute")
    rows = benchmark(lambda: [
        [p, f"{_results[p].hit_rate:.1%}",
         f"{_results[p].throughput_rps:.0f}",
         f"{_results[p].mean_response_s * 1e3:.1f}"]
        for p in POLICIES
    ])
    print()
    print(format_table(
        "Extension - cache replacement under LARD (8% memory)",
        ["cache", "hit", "thr (rps)", "resp (ms)"], rows))
    assert _results["gdsf"].hit_rate >= _results["lru"].hit_rate - 0.01

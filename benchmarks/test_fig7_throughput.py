"""Fig. 7 — throughput of WRR / LARD / Ext-LARD-PHTTP / PRORD.

One benchmark per policy over the same saturating CS-department
workload (the paper's headline trace); the report test prints the
Fig. 7 rows and asserts the ordering and the PRORD-over-LARD gain band.
"""

import pytest

from repro.core import run_policy
from repro.experiments import format_table

from conftest import BENCH, run_once

POLICIES = ("wrr", "lard", "ext-lard-phttp", "prord")
_results = {}


@pytest.mark.parametrize("policy", POLICIES)
def test_fig7_policy_run(benchmark, policy, cs_loaded, bench_params):
    result = run_once(benchmark, lambda: run_policy(
        cs_loaded, policy, bench_params,
        cache_fraction=BENCH.cache_fraction,
        window_s=BENCH.duration_s,
    ))
    _results[policy] = result
    assert result.report.completed > 0


def test_fig7_report(benchmark):
    if set(_results) != set(POLICIES):
        pytest.skip("policy runs did not execute")
    rows = benchmark(lambda: [
        [p, f"{_results[p].throughput_rps:.0f}",
         f"{_results[p].mean_response_s * 1e3:.1f}",
         f"{_results[p].hit_rate:.1%}"]
        for p in POLICIES
    ])
    print()
    print(format_table(
        "Fig. 7 - Throughput Comparison (cs-department, 8 backends)",
        ["policy", "thr (rps)", "resp (ms)", "hit"], rows))
    thr = {p: _results[p].throughput_rps for p in POLICIES}
    gain = thr["prord"] / thr["lard"] - 1
    print(f"PRORD over LARD: {gain:+.1%} (paper: +10% to +45%)")
    assert thr["wrr"] < thr["lard"]
    assert thr["lard"] <= thr["ext-lard-phttp"] * 1.02
    assert thr["prord"] > thr["lard"]
    assert gain > 0.10

"""Shape tests for the experiment harness.

These assert the *qualitative* findings of the paper's evaluation
(DESIGN.md §4's shape targets) at a reduced scale, so a regression that
flips a comparison fails CI.  Absolute numbers are not asserted.
"""


import pytest

from repro.experiments import (
    Cell,
    ExperimentScale,
    format_table,
    loaded_workload,
    run_grid,
    run_table1,
)

# A trimmed scale so the whole module stays test-suite friendly; short
# sessions keep the 4-second window in steady state.
TINY = ExperimentScale(
    name="tiny",
    duration_s=4.0,
    session_rates={"synthetic": 500.0, "cs-department": 450.0,
                   "worldcup": 400.0},
    n_backends=8,
    think_time_mean=0.25,
    max_session_pages=10,
)


def run_policies(workload, policies, scale, cache_fraction=None):
    """Each policy over the same workload (one mining pass): name → result."""
    cells = [Cell(workload.name, p, cache_fraction=cache_fraction)
             for p in policies]
    out = run_grid(cells, scale, workloads={workload.name: workload})
    return {r.cell.policy: r.result for r in out}


@pytest.fixture(scope="module")
def synthetic_results():
    workload = loaded_workload("synthetic", TINY)
    return run_policies(
        workload, ("wrr", "lard", "ext-lard-phttp", "prord"), TINY)


class TestTable1:
    def test_rows_cover_paper_entries(self):
        rows = dict(run_table1())
        for key in ("Kernel Memory", "Connection latency", "Disk latency",
                    "TCP handoff latency", "Data transmission rate",
                    "Power consumption", "Interconnection network"):
            assert key in rows


class TestFig6Shape:
    def test_prord_dispatches_far_below_lard(self, synthetic_results):
        lard = synthetic_results["lard"].report.dispatches
        prord = synthetic_results["prord"].report.dispatches
        assert prord < 0.1 * lard

    def test_lard_dispatches_every_request(self, synthetic_results):
        r = synthetic_results["lard"]
        assert r.report.dispatches == r.report.connections


class TestFig7Shape:
    def test_policy_ordering(self, synthetic_results):
        thr = {k: v.throughput_rps for k, v in synthetic_results.items()}
        assert thr["wrr"] < thr["lard"]
        assert thr["lard"] <= thr["ext-lard-phttp"]
        assert thr["ext-lard-phttp"] < thr["prord"]

    def test_prord_gain_band(self, synthetic_results):
        lard = synthetic_results["lard"].throughput_rps
        prord = synthetic_results["prord"].throughput_rps
        gain = prord / lard - 1
        # The paper reports 10-45%; allow slack for the reduced scale.
        assert 0.05 < gain < 0.8

    def test_locality_policies_hit_more(self, synthetic_results):
        assert (synthetic_results["lard"].hit_rate
                > synthetic_results["wrr"].hit_rate + 0.15)

    def test_prord_response_time_wins(self, synthetic_results):
        assert (synthetic_results["prord"].mean_response_s
                < synthetic_results["lard"].mean_response_s)


class TestFig8Shape:
    def test_lard_prord_converge_with_memory(self):
        workload = loaded_workload("synthetic", TINY)
        small = run_policies(workload, ("lard", "prord"), TINY,
                             cache_fraction=0.1)
        large = run_policies(workload, ("lard", "prord"), TINY,
                             cache_fraction=1.0)

        # At full memory both policies approach perfect hit rates.
        assert large["lard"].hit_rate > 0.9
        assert large["prord"].hit_rate > 0.9
        # More memory never hurts either policy.
        assert large["lard"].hit_rate >= small["lard"].hit_rate - 0.02
        assert large["prord"].hit_rate >= small["prord"].hit_rate - 0.02


class TestFig9Shape:
    def test_enhancements_complementary(self):
        workload = loaded_workload("cs-department", TINY)
        results = run_policies(
            workload,
            ("ext-lard-phttp", "lard-bundle", "lard-prefetch-nav", "prord"),
            TINY,
        )
        base = results["ext-lard-phttp"].throughput_rps
        combined = results["prord"].throughput_rps
        assert combined > base
        # The combination is at least as good as each single enhancement.
        for single in ("lard-bundle", "lard-prefetch-nav"):
            assert combined >= results[single].throughput_rps * 0.95


class TestHarness:
    def test_format_table_alignment(self):
        out = format_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(l) for l in lines[2:-1]}) == 1

    def test_format_table_empty_rows(self):
        out = format_table("T", ["col"], [])
        assert "col" in out

    def test_unknown_rate_raises(self):
        with pytest.raises(KeyError):
            TINY.rate_for("nope")

    def test_loaded_workload_seed_offset(self):
        a = loaded_workload("synthetic", TINY)
        b = loaded_workload("synthetic", TINY, seed_offset=5)
        assert [r.path for r in a.trace[:50]] != [r.path for r in b.trace[:50]]

    def test_loaded_workload_seed_offset_zero_pins_base_seed(self):
        # seed_offset=0 is an explicit request for the base seed, not a
        # falsy no-op: it must reproduce the default (whose factory seed
        # IS the base seed) and stay distinguishable from None upstream.
        default = loaded_workload("synthetic", TINY)
        pinned = loaded_workload("synthetic", TINY, seed_offset=0)
        assert ([r.path for r in default.trace[:100]]
                == [r.path for r in pinned.trace[:100]])

"""Tests for the end-to-end core system (mining + build + run)."""

import pytest

from repro.core import (
    POLICY_NAMES,
    PRORDSystem,
    SimulationParams,
    build_policy,
    cache_bytes_for_fraction,
    mine_components,
    run_policy,
)
from repro.logs import synthetic_workload


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(scale=0.05)


@pytest.fixture(scope="module")
def mining(workload):
    return mine_components(workload)


class TestMining:
    def test_artifacts_present(self, mining):
        assert mining.components.bundles is not None
        assert len(mining.components.bundles) > 10
        assert mining.components.predictor is not None
        assert mining.graph.num_pages > 50
        assert len(mining.rank_table) > 100
        assert mining.num_sessions > 10
        assert mining.num_sequences > 0

    def test_predictor_threshold_from_params(self, workload):
        params = SimulationParams(prefetch_threshold=0.9)
        m = mine_components(workload, params)
        assert m.components.predictor.threshold == 0.9

    def test_depgraph_order_from_params(self, workload):
        params = SimulationParams(depgraph_order=3)
        m = mine_components(workload, params)
        assert m.graph.order == 3


class TestBuildPolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_names_build(self, name, mining):
        policy, replicator = build_policy(name, mining)
        assert policy is not None
        if name in ("prord", "lard-distribution"):
            assert replicator is not None
        else:
            assert replicator is None

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            build_policy("bogus")

    def test_prord_requires_mining(self):
        with pytest.raises(ValueError, match="requires"):
            build_policy("prord", None)

    def test_baselines_ignore_mining(self):
        policy, _ = build_policy("wrr", None)
        assert policy.name == "wrr"


class TestHelpers:
    def test_cache_bytes_aggregate_semantics(self, workload):
        total = cache_bytes_for_fraction(workload, 0.3, 1)
        per8 = cache_bytes_for_fraction(workload, 0.3, 8)
        assert total == pytest.approx(0.3 * workload.site_bytes, rel=0.01)
        assert per8 * 8 == pytest.approx(total, rel=0.01)

    def test_cache_bytes_validation(self, workload):
        with pytest.raises(ValueError):
            cache_bytes_for_fraction(workload, 0.0, 8)
        with pytest.raises(ValueError):
            cache_bytes_for_fraction(workload, 0.3, 0)


class TestRunPolicy:
    def test_baseline_run(self, workload):
        r = run_policy(workload, "wrr",
                       SimulationParams(n_backends=4),
                       cache_fraction=0.3)
        assert r.policy_name == "wrr"
        assert r.report.completed > 1000

    def test_prord_run_mines_automatically(self, workload):
        r = run_policy(workload, "prord",
                       SimulationParams(n_backends=4),
                       cache_fraction=0.3)
        assert r.report.prefetches_issued > 0
        assert r.report.dispatch_frequency < 0.5

    def test_cache_fraction_none_uses_table1(self, workload):
        # With cache_fraction=None the Table-1 pinned memory (72 MB)
        # applies, dwarfing the ~30 MB site — hit rate must beat a
        # deliberately starved configuration (compulsory misses dominate
        # either way on this short trace, so compare, don't threshold).
        big = run_policy(workload, "wrr",
                         SimulationParams(n_backends=2),
                         cache_fraction=None)
        tiny = run_policy(workload, "wrr",
                          SimulationParams(n_backends=2),
                          cache_fraction=0.01)
        assert big.hit_rate > tiny.hit_rate


class TestPRORDSystem:
    def test_compare_runs_all(self, workload):
        system = PRORDSystem(workload, SimulationParams(n_backends=4))
        results = system.compare(("wrr", "prord"), cache_fraction=0.3)
        assert set(results) == {"wrr", "prord"}
        assert all(r.report.completed > 0 for r in results.values())

    def test_models_cached_runtime_fresh(self, workload):
        system = PRORDSystem(workload)
        # One offline mining pass, shared; per-run state is never shared.
        assert system.models is system.models
        a, b = system.mining, system.mining
        assert a is not b
        assert a.components.predictor is not b.components.predictor
        # Both runs consult the same immutable mined tables.
        assert a.components.bundles is b.components.bundles
        assert a.rank_table is b.rank_table

    def test_prord_beats_wrr_on_locality(self, workload):
        system = PRORDSystem(workload, SimulationParams(n_backends=4))
        results = system.compare(("wrr", "prord"), cache_fraction=0.2)
        assert (results["prord"].hit_rate > results["wrr"].hit_rate)


class TestPredictorKind:
    def test_ppm_backed_prefetcher(self, workload):
        from repro.mining import PPMPredictor
        m = mine_components(workload, predictor_kind="ppm")
        assert isinstance(m.components.predictor.graph, PPMPredictor)
        r = run_policy(workload, "prord", SimulationParams(n_backends=4),
                       mining=m, cache_fraction=0.2)
        assert r.report.prefetches_issued > 0

    def test_unknown_kind_rejected(self, workload):
        with pytest.raises(ValueError, match="predictor_kind"):
            mine_components(workload, predictor_kind="bogus")

"""Tests for the differential policy harness (cross-run contracts)."""

import pytest

from repro.experiments.common import loaded_workload
from repro.sim import DifferentialCheck, DifferentialReport
from repro.sim.differential import (
    DEFAULT_POLICIES,
    check_audit_transparency,
    check_degenerate_prord,
    check_determinism,
    check_grid_parallel,
    check_telemetry_transparency,
    run_differential_suite,
)
from tests.test_audit import MICRO


@pytest.fixture(scope="module")
def workload():
    return loaded_workload("synthetic", MICRO)


class TestIndividualChecks:
    def test_degenerate_prord_equals_lard(self, workload):
        check = check_degenerate_prord(workload, MICRO)
        assert check.passed, check.detail
        assert "identical" in check.detail

    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    def test_determinism(self, workload, policy_name):
        check = check_determinism(workload, MICRO, policy_name)
        assert check.passed, check.detail
        assert check.name == f"determinism[{policy_name}]"

    @pytest.mark.parametrize("policy_name", ("lard", "prord"))
    def test_audit_transparency(self, workload, policy_name):
        check = check_audit_transparency(workload, MICRO, policy_name)
        assert check.passed, check.detail
        assert "0 violations" in check.detail

    @pytest.mark.parametrize("policy_name", ("lard", "prord"))
    def test_telemetry_transparency(self, workload, policy_name):
        check = check_telemetry_transparency(workload, MICRO, policy_name)
        assert check.passed, check.detail
        assert "completions observed" in check.detail

    def test_grid_parallel_matches_serial(self, workload):
        check = check_grid_parallel(
            workload, MICRO, ("wrr", "lard", "prord"), jobs=2
        )
        assert check.passed, check.detail
        assert "3 cells identical" in check.detail

    def test_streamed_replay_matches_materialized(self):
        from repro.sim.differential import check_streamed_replay
        check = check_streamed_replay(
            preset_scales={"synthetic": 0.02}, policy_name="prord"
        )
        assert check.passed, check.detail
        assert "materialized == streamed" in check.detail

    def test_streamed_replay_covers_every_preset_by_default(self):
        from repro.sim.differential import _REPLAY_PRESET_SCALES
        assert set(_REPLAY_PRESET_SCALES) == {
            "synthetic", "cs-department", "worldcup"
        }


class TestSuite:
    def test_full_battery_passes(self):
        report = run_differential_suite(
            MICRO, policies=("lard", "prord"), jobs=2
        )
        assert isinstance(report, DifferentialReport)
        assert report.passed, report.format()
        names = [c.name for c in report.checks]
        # degenerate + streamed replay +
        # (determinism, audit, telemetry) per policy + grid.
        assert names == [
            "degenerate-prord",
            "streamed-replay",
            "determinism[lard]", "audit-transparency[lard]",
            "telemetry-transparency[lard]",
            "determinism[prord]", "audit-transparency[prord]",
            "telemetry-transparency[prord]",
            "grid-parallel[jobs=2]",
        ]

    def test_jobs_below_two_skips_grid_check(self):
        report = run_differential_suite(MICRO, policies=("wrr",), jobs=0)
        assert report.passed, report.format()
        assert not any("grid" in c.name for c in report.checks)

    def test_format_reports_verdicts(self):
        passed = DifferentialReport(checks=(
            DifferentialCheck("a", True, "fine"),
        ))
        text = passed.format()
        assert "[ok ] a: fine" in text
        assert "all checks passed" in text
        failed = DifferentialReport(checks=(
            DifferentialCheck("a", True, "fine"),
            DifferentialCheck("b", False, "3 field(s) differ"),
        ))
        text = failed.format()
        assert not failed.passed
        assert "[FAIL] b: 3 field(s) differ" in text
        assert "CHECKS FAILED" in text

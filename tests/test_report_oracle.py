"""Tier-1 slice of the committed report oracle (``tests/report_oracle.py``).

Checks all six mined-model fingerprints and the ``lard`` and ``prord``
reports on ``synthetic``; CI checks all 24 reports with
``python -m tests.report_oracle``.
"""

import pytest

from repro.core.system import POLICY_NAMES
from tests import report_oracle as oracle


@pytest.fixture(scope="module")
def recorded():
    return oracle.load()


@pytest.fixture(scope="module")
def workloads():
    return {preset: oracle.workload(preset) for preset in oracle.PRESETS}


class TestOracleFile:
    def test_covers_every_policy_preset_and_kind(self, recorded):
        assert recorded["schema"] == oracle.SCHEMA
        assert recorded["scale"] == "quick"
        assert set(recorded["environment"]) == {"python", "numpy"}
        assert set(recorded["reports"]) == set(oracle.PRESETS)
        for preset in oracle.PRESETS:
            assert set(recorded["reports"][preset]) == set(POLICY_NAMES)
            assert set(recorded["fingerprints"][preset]) == \
                set(oracle.PREDICTOR_KINDS)

    def test_mismatch_names_preset_policy_and_field(self, recorded):
        expected = recorded["reports"]["synthetic"]["lard"]
        actual = dict(expected, handoffs=expected["handoffs"] + 1)
        lines = oracle.report_mismatches("synthetic", "lard", expected,
                                         actual)
        assert len(lines) == 1
        assert lines[0].startswith("synthetic/lard: handoffs: oracle ")

    def test_fingerprint_mismatch_names_preset_and_kind(self):
        assert oracle.fingerprint_mismatch("worldcup", "ppm", "a" * 64,
                                           "a" * 64) == []
        (line,) = oracle.fingerprint_mismatch("worldcup", "ppm", "a" * 64,
                                              "b" * 64)
        assert line.startswith("worldcup/ppm: models fingerprint")

    def test_environment_note_names_the_difference(self, recorded):
        assert "matches" in oracle.environment_note(
            dict(recorded, environment=oracle.environment()))
        note = oracle.environment_note(
            dict(recorded, environment={"python": "0.0", "numpy": "0.0"}))
        assert "numpy 0.0 recorded" in note and "python 0.0" in note


@pytest.mark.parametrize("kind", oracle.PREDICTOR_KINDS)
@pytest.mark.parametrize("preset", oracle.PRESETS)
def test_models_fingerprint(recorded, workloads, preset, kind):
    expected = recorded["fingerprints"][preset][kind]
    problems = oracle.fingerprint_mismatch(
        preset, kind, expected, oracle.fingerprint(workloads[preset], kind))
    assert not problems, (problems, oracle.environment_note(recorded))


@pytest.mark.parametrize("policy", ("lard", "prord"))
def test_synthetic_report(recorded, workloads, policy):
    problems = oracle.report_mismatches(
        "synthetic", policy, recorded["reports"]["synthetic"][policy],
        oracle.report(workloads["synthetic"], policy))
    assert not problems, (problems, oracle.environment_note(recorded))

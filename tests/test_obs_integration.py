"""End-to-end telemetry contracts: transparency, pool merging, exports.

The two load-bearing guarantees (ISSUE §acceptance):

1. telemetry is *observation-only* — a telemetered run's report is
   bit-identical to a plain run's;
2. a ``--jobs`` pool and the serial loop produce identical merged
   telemetry (modulo wall-clock, which ``deterministic_dict`` drops).
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core import run_policy
from repro.experiments import Cell, loaded_workload, run_grid
from repro.obs import (
    build_manifest,
    merge_telemetry,
    prometheus_text,
    render_dashboard,
    timeline_csv,
    timeline_jsonl,
    windows_from_jsonl,
)
from tests.test_obs_timeline import MICRO

GRID = [Cell(workload="synthetic", policy=p) for p in ("lard", "prord")]


@pytest.fixture(scope="module")
def workload():
    return loaded_workload("synthetic", MICRO)


@pytest.fixture(scope="module")
def telemetered(workload):
    results = run_grid(GRID, MICRO, jobs=0,
                       workloads={"synthetic": workload}, telemetry=True)
    return results


class TestTransparency:
    @pytest.mark.parametrize("policy", ("lard", "prord"))
    def test_report_bit_identical(self, workload, policy):
        plain = run_policy(workload, policy)
        observed = run_policy(workload, policy, telemetry=True)
        assert dataclasses.asdict(plain.report) == \
            dataclasses.asdict(observed.report)
        assert plain.telemetry is None
        summary = observed.telemetry
        assert summary is not None
        assert summary.completions == observed.report.all_completed

    def test_single_run_profiles_mining(self, workload):
        result = run_policy(workload, "prord", telemetry=True)
        phases = dict(result.telemetry.phase_timings())
        assert "simulate" in phases
        assert "mine.stream" in phases
        assert "replicate" in phases
        assert phases["simulate"].units == \
            result.telemetry.events_processed


class TestPoolMerge:
    def test_pool_equals_serial_merged_telemetry(self, workload,
                                                 telemetered):
        pooled = run_grid(GRID, MICRO, jobs=2,
                          workloads={"synthetic": workload},
                          telemetry=True)
        serial_merged = merge_telemetry(
            [r.result.telemetry for r in telemetered])
        pooled_merged = merge_telemetry(
            [r.result.telemetry for r in pooled])
        assert serial_merged.deterministic_dict() == \
            pooled_merged.deterministic_dict()
        # And per-cell timelines survive pickling through the pool.
        for s, p in zip(telemetered, pooled):
            assert s.result.telemetry.deterministic_dict() == \
                p.result.telemetry.deterministic_dict()

    def test_merge_requires_at_least_one(self):
        with pytest.raises(ValueError):
            merge_telemetry([None, None])


class TestExports:
    def test_jsonl_round_trip(self, telemetered):
        entries = [({"policy": r.cell.policy}, r.result.telemetry)
                   for r in telemetered]
        text = timeline_jsonl(entries)
        records, footer = windows_from_jsonl(text)
        assert footer["schema"] == "prord-timeline/v1"
        assert footer["cells"] == 2
        assert footer["windows"] == len(records)
        # Labels are folded into every window line.
        assert sum(1 for rec in records
                   if rec["policy"] == "prord") > 0

    def test_csv(self, telemetered):
        text = timeline_csv(telemetered[0].result.telemetry,
                            labels={"policy": "lard"})
        header, *rows = text.strip().splitlines()
        assert "completions" in header
        timeline = telemetered[0].result.telemetry.timeline
        assert len(rows) == len(timeline) * timeline.n_servers

    def test_prometheus(self, telemetered):
        summary = telemetered[0].result.telemetry
        text = prometheus_text(summary, labels={"policy": "lard"})
        assert 'quantile="0.95"' in text
        assert 'policy="lard"' in text
        assert "# TYPE" in text

    def test_dashboard_renders(self, telemetered):
        out = render_dashboard(telemetered[1].result.telemetry,
                               title="prord")
        assert "prord" in out
        assert "p95" in out
        assert "backend" in out


class TestCLI:
    def test_timeline_command(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        rc = main(["timeline", "--workloads", "synthetic",
                   "--policies", "lard", "--out-dir", str(out_dir)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "p95" in printed
        assert "fingerprint" in printed
        jsonl = (out_dir / "timeline.jsonl").read_text()
        _, footer = windows_from_jsonl(jsonl)
        assert footer["cells"] == 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["schema"] == "prord-run-manifest/v1"
        assert (out_dir / "metrics.prom").exists()


class TestManifestFromGrid:
    def test_phase_seconds_rolls_up(self, telemetered, workload):
        manifest = build_manifest(telemetered, MICRO,
                                  workloads={"synthetic": workload})
        phases = manifest.payload["wall_clock"]["phases_s"]
        assert "simulate" in phases
        assert phases["simulate"] > 0

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
from repro.core import SimulationParams, run_policy
from repro.experiments import Cell, loaded_workload, run_grid
from repro.logs import SiteSpec, TraceGenerator, TrafficSpec, build_site
from repro.obs import (
    StreamingHistogram,
    Telemetry,
    build_manifest,
    merge_telemetry,
    render_dashboard,
    timeline_jsonl,
    windows_from_jsonl,
)
from repro.obs.telemetry import HIST_GROWTH, HIST_MIN_S
from repro.policies import WRRPolicy
from repro.sim import ClusterSimulator
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


class TestFinalizeFold:
    def test_histograms_equal_one_add_per_completion(self):
        site = build_site(SiteSpec(categories=("a", "b"),
                                   pages_per_category=30,
                                   dynamic_fraction=0.3, seed=4))
        trace = TraceGenerator(site, TrafficSpec(num_requests=600,
                                                 seed=2)).generate()
        params = SimulationParams(n_backends=2, cache_bytes=64 * 1024)
        telemetry = Telemetry()
        cluster = ClusterSimulator(trace, WRRPolicy(), params,
                                   telemetry=telemetry)
        cluster.run()
        summary = telemetry.finalize()
        records = cluster.metrics.records
        assert any(r.dynamic for r in records)
        assert any(not r.dynamic and not r.hit for r in records)
        # The reference: one add per completion, in completion order,
        # with the scalar cost-model methods.
        response = StreamingHistogram(min_value=HIST_MIN_S,
                                      growth=HIST_GROWTH)
        service = StreamingHistogram(min_value=HIST_MIN_S,
                                     growth=HIST_GROWTH)
        for r in records:
            response.add(r.completion - r.arrival)
            if r.dynamic:
                demand = params.backend_cpu_s + params.dynamic_cpu_s
            else:
                demand = params.backend_cpu_s + params.transmit_s(r.size)
                if not r.hit:
                    demand += params.disk_service_s(r.size)
            service.add(demand)
        assert summary.response_hist.to_dict() == response.to_dict()
        assert summary.service_hist.to_dict() == service.to_dict()
        assert summary.completions == len(records) == 600


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
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["manifest.json", "timeline.jsonl"]
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "--charts"])
        assert exc.value.code == 2


class TestManifestFromGrid:
    def test_phase_seconds_rolls_up(self, telemetered, workload):
        manifest = build_manifest(telemetered, MICRO,
                                  workloads={"synthetic": workload})
        phases = manifest.payload["wall_clock"]["phases_s"]
        assert "simulate" in phases
        assert phases["simulate"] > 0

"""Property tests: streamed replay ≡ materialized replay.

The evaluation side's counterpart of one-pass mining: a workload whose
trace is a
lazy :class:`SidecarRequestSource` must replay — through every policy,
streamed or eagerly scheduled, sampled or not — into a result
field-for-field identical to the materialized :class:`Trace`, while the
event calendar never holds more than one trace arrival.
"""

import dataclasses
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro
from repro.core.system import run_policy
from repro.logs import Trace
from repro.logs.replay import SidecarRequestSource, _decode_row, write_sidecar
from repro.logs.store import load_workload, save_workload
from repro.logs.workloads import synthetic_workload
from repro.sim import ClusterSimulator
from repro.sim.differential import DEFAULT_POLICIES, report_fields
from tests.test_arrival_pump import (
    _assert_one_pending_arrival,
    _build_trace,
    _long_trace,
    _observable,
    _params,
    _run,
    random_traces,
)
from repro.core.system import build_policy


def _sidecar_source(trace: Trace, directory: Path) -> SidecarRequestSource:
    """Round-trip a trace through the sidecar into a lazy source."""
    path = directory / "trace.meta.jsonl"
    write_sidecar(trace, path)
    return SidecarRequestSource(path)


class TestStreamedEqualsMaterialized:
    """The tentpole property: run_policy streamed == eager, all policies."""

    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    @settings(max_examples=10, deadline=None)
    @given(spec=random_traces)
    def test_property_streamed_run_matches_materialized(
        self, policy_name, spec
    ):
        trace = _build_trace(spec)
        materialized = _observable(*_run(trace, policy_name))
        assert materialized["events"], "trace produced no events"
        with tempfile.TemporaryDirectory() as tmp:
            source = _sidecar_source(trace, Path(tmp))
            # The default streamed pump, and eager scheduling.
            for eager in (False, True):
                streamed = _observable(*_run(source, policy_name, eager))
                differing = [
                    k for k in materialized
                    if materialized[k] != streamed[k]
                ]
                assert not differing, (
                    f"streamed eager={eager} diverges from "
                    f"materialized on {differing}"
                )

    @settings(max_examples=20, deadline=None)
    @given(spec=random_traces)
    def test_property_source_summary_matches_trace(self, spec):
        trace = _build_trace(spec)
        with tempfile.TemporaryDirectory() as tmp:
            source = _sidecar_source(trace, Path(tmp))
            assert len(source) == len(trace)
            assert source.start == trace.start
            assert source.duration == trace.duration
            assert dict(source.catalog) == dict(trace.catalog)
            assert source.connection_counts() == trace.connection_counts()
            # Re-iteration: every pass yields the identical requests.
            assert list(source) == list(trace)
            assert list(source) == list(source)


class TestWorkloadRoundTrip:
    """save_workload → load_workload(stream=True) → run_policy."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("wl") / "synthetic"
        save_workload(synthetic_workload(scale=0.02), out)
        return out

    def test_streamed_load_is_lazy(self, saved):
        w = load_workload(saved, stream=True)
        assert isinstance(w.trace, SidecarRequestSource)
        assert len(w.trace) == len(load_workload(saved).trace)

    def test_run_policy_streamed_field_for_field(self, saved):
        batch = load_workload(saved)
        stream = load_workload(saved, stream=True)
        a = run_policy(batch, "prord")
        b = run_policy(stream, "prord")
        assert report_fields(a) == report_fields(b)
        assert a.trace_name == b.trace_name

    def test_run_policy_sampled_streamed_field_for_field(self, saved):
        batch = load_workload(saved, sample_rate=0.5, sample_seed=3)
        stream = load_workload(saved, stream=True,
                               sample_rate=0.5, sample_seed=3)
        assert 0 < len(stream.trace) < len(load_workload(saved).trace)
        assert len(batch.trace) == len(stream.trace)
        # prord exercises sampled mining + sampled replay end to end.
        a = run_policy(batch, "prord")
        b = run_policy(stream, "prord")
        assert report_fields(a) == report_fields(b)

    def test_sampling_to_nothing_raises(self, saved):
        with pytest.raises(ValueError, match="left no evaluation"):
            load_workload(saved, stream=True, sample_rate=1e-12)


class TestRewrittenSidecar:
    """A sidecar rewritten between load and replay no longer matches the
    summary the simulator was built from; the replay must fail loudly
    instead of reporting a different trace."""

    @pytest.fixture(scope="class")
    def workload(self):
        return synthetic_workload(scale=0.02)

    def test_shorter_pass_raises(self, tmp_path, workload):
        out = save_workload(workload, tmp_path / "wl")
        stream = load_workload(out, stream=True)
        shorter = dataclasses.replace(workload, trace=workload.trace.head(300))
        save_workload(shorter, out)
        with pytest.raises(ValueError, match=(
                f"ended after 300 of its {len(workload.trace)} requests")):
            run_policy(stream, "lard")

    def test_longer_pass_raises(self, tmp_path, workload):
        shorter = dataclasses.replace(workload, trace=workload.trace.head(300))
        out = save_workload(shorter, tmp_path / "wl")
        stream = load_workload(out, stream=True)
        save_workload(workload, out)
        with pytest.raises(ValueError, match="yielded more than its 300"):
            run_policy(stream, "lard")


class TestSidecarSourceValidation:
    """Construction is the validation pass: defects fail fast, not
    mid-simulation."""

    def _write(self, tmp_path, text):
        p = tmp_path / "trace.meta.jsonl"
        p.write_text(text)
        return p

    def test_bad_header_rejected(self, tmp_path):
        p = self._write(tmp_path, '{"kind": "something-else"}\n')
        with pytest.raises(ValueError, match="unrecognized trace sidecar"):
            SidecarRequestSource(p)

    def test_truncation_rejected(self, tmp_path):
        trace = _build_trace([(0.01, 0, 0)] * 5)
        p = tmp_path / "trace.meta.jsonl"
        write_sidecar(trace, p)
        p.write_text("".join(p.read_text().splitlines(keepends=True)[:-2]))
        with pytest.raises(ValueError, match="truncated"):
            SidecarRequestSource(p)

    def test_out_of_order_rejected(self, tmp_path):
        header = ('{"format_version": 1, "kind": "prord-trace-meta", '
                  '"name": "x", "n": 2}\n')
        row = ('{"a": %f, "c": 0, "p": "/p", "s": 1, "e": false, '
               '"d": false, "pa": null, "cl": "-"}\n')
        p = self._write(tmp_path, header + row % 2.0 + row % 1.0)
        with pytest.raises(ValueError, match="sorted by arrival"):
            SidecarRequestSource(p)


_ROW = ('{"a": 1.0, "c": 0, "p": "/p", "s": 1, "e": false, "d": false, '
        '"pa": null, "cl": "-"}')

#: Sidecar lines ``json.loads`` accepts...
GOOD_LINES = {
    "row": _ROW + "\n",
    "no-newline": _ROW,
    "surrounding-spaces": "  " + _ROW + " \t\r\n",
    "any-json-value": "[1, NaN]\n",
}
#: ...and rows it rejects, each as the line(s) that replace one row.
BAD_ROWS = {
    "two-objects": [_ROW + " " + _ROW + "\n"],
    "split-across-lines": [_ROW[:30] + "\n", _ROW[30:] + "\n"],
    "blank": ["\n"],
    "whitespace-only": [" \t \n"],
    "bom": ["\ufeff" + _ROW + "\n"],
    "form-feed": [_ROW + "\f\n"],
    "vertical-tab": ["\x0b" + _ROW + "\n"],
    "no-break-space": ["\xa0" + _ROW + "\n"],
}


def _outcome(decode, line):
    try:
        return json.dumps(decode(line))
    except json.JSONDecodeError:
        return None


class TestSidecarRowDecoder:
    """Each sidecar line decodes in one call, accepting and rejecting
    exactly what ``json.loads`` does."""

    @pytest.mark.parametrize("line,accepted", [
        *[pytest.param(line, True, id=k) for k, line in GOOD_LINES.items()],
        *[pytest.param(line, False, id=f"{k}-{i}")
          for k, lines in BAD_ROWS.items() for i, line in enumerate(lines)],
    ])
    def test_decodes_like_json_loads(self, line, accepted):
        expected = _outcome(json.loads, line)
        assert (expected is not None) == accepted
        assert _outcome(_decode_row, line) == expected

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("wl") / "synthetic"
        save_workload(synthetic_workload(scale=0.02), out)
        return out

    @pytest.mark.parametrize("bad", BAD_ROWS.values(), ids=BAD_ROWS.keys())
    def test_bad_row_rejected_on_load(self, saved, tmp_path, caplog, bad):
        out = tmp_path / "wl"
        shutil.copytree(saved, out)
        p = out / "trace.meta.jsonl"
        lines = p.read_text().splitlines(keepends=True)
        lines[1:2] = bad
        p.write_text("".join(lines))
        with pytest.raises(ValueError):
            SidecarRequestSource(p)
        n = len(load_workload(saved).trace)
        for stream in (False, True):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
                again = load_workload(out, stream=stream)
            assert "unusable trace sidecar" in caplog.text
            assert isinstance(again.trace, Trace)
            assert len(again.trace) == n


class TestStreamedFootprint:
    def test_calendar_holds_at_most_one_arrival(self, tmp_path):
        # The whole point: with a lazy source the calendar holds one
        # trace arrival and the pump one chunk of requests, not the
        # trace.
        n = 3000
        source = _sidecar_source(_long_trace(n), tmp_path)
        cluster = ClusterSimulator(source, build_policy("lard")[0], _params())
        _assert_one_pending_arrival(cluster, source)
        assert cluster.sim.calendar_high_water < n // 10


#: Replays a saved workload (argv[1]) materialized and streamed under
#: the strict auditor, then reports whether numpy was ever imported.
_REPLAY_SCRIPT = """
import json, sys
from repro.core.system import run_policy
from repro.logs.store import load_workload

reports = {}
for stream in (False, True):
    workload = load_workload(sys.argv[1], stream=stream)
    for policy in ("lard", "prord"):
        result = run_policy(workload, policy, audit=True)
        assert result.audit.clean, (stream, policy)
        reports.setdefault(policy, []).append(result.report)
assert all(a == b for a, b in reports.values()), "streamed != materialized"
print(json.dumps(sorted(
    name for name in sys.modules if name.split(".")[0] == "numpy")))
"""


def _run_child(script: str, *args: str) -> list:
    """Run ``script`` in a fresh interpreter with a minimal environment;
    returns the JSON its last output line prints."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1]),
             "PATH": "/usr/bin:/bin",
             # The caller's bytecode setting passes through, so the
             # child stays minimal.
             **{k: v for k, v in os.environ.items()
                if k == "PYTHONDONTWRITEBYTECODE"}},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestReplayWithoutNumpy:
    """Only workload generation draws from numpy's random generator, so
    replaying a saved workload never imports numpy."""

    def test_saved_workload_replays_without_numpy(self, tmp_path):
        out = save_workload(synthetic_workload(scale=0.02), tmp_path / "wl")
        assert _run_child(_REPLAY_SCRIPT, str(out)) == []


#: Loads a saved workload (argv[2]) materialized and streamed, replays
#: both under one policy (argv[1]; ``audited`` is LARD under the
#: auditor), and prints the ``repro`` modules the process loaded.
_BUDGET_SCRIPT = """
import json, sys
from repro.core.system import run_policy
from repro.logs.store import load_workload

case, directory = sys.argv[1:]
for stream in (False, True):
    workload = load_workload(directory, stream=stream)
    run_policy(workload, "lard" if case == "audited" else case,
               audit=case == "audited")
print(json.dumps(sorted(
    name for name in sys.modules if name.split(".")[0] == "repro")))
"""

#: Every module a LARD replay of a saved workload needs: the readers, the
#: simulator and one policy.  No miner, generator or observer.
LARD_REPLAY_MODULES = [
    "repro",
    "repro.core", "repro.core.config", "repro.core.system",
    "repro.logs", "repro.logs.clf", "repro.logs.records",
    "repro.logs.replay", "repro.logs.site", "repro.logs.store",
    "repro.logs.workloads",
    "repro.policies", "repro.policies.base", "repro.policies.lard",
    "repro.sim", "repro.sim.cache", "repro.sim.cluster", "repro.sim.engine",
    "repro.sim.frontend", "repro.sim.gdsf", "repro.sim.server",
    "repro.sim.soa", "repro.sim.stats",
]

#: Modules a PRORD replay runs without: observers, harnesses, generators,
#: the sampler and the comparator predictor.
PRORD_UNUSED_MODULES = [
    "repro.sim.audit", "repro.sim.tracing", "repro.sim.failures",
    "repro.sim.closedloop", "repro.sim.differential",
    "repro.obs.telemetry", "repro.obs.timeline", "repro.obs.histogram",
    "repro.obs.dashboard", "repro.obs.export", "repro.obs.manifest",
    "repro.logs.synthetic", "repro.logs.validate", "repro.logs.sampling",
    "repro.mining.ppm",
]


class TestImportBudget:
    """A replay loads the modules it runs and no others (DESIGN.md §10,
    "Import layering")."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("budget") / "wl"
        return str(save_workload(synthetic_workload(scale=0.02), out))

    def test_lard_replay_loads_exactly_its_modules(self, saved):
        loaded = _run_child(_BUDGET_SCRIPT, "lard", saved)
        extra = sorted(set(loaded) - set(LARD_REPLAY_MODULES))
        missing = sorted(set(LARD_REPLAY_MODULES) - set(loaded))
        assert not extra and not missing, (
            f"extra modules {extra}; missing modules {missing}")

    def test_prord_replay_skips_what_it_does_not_run(self, saved):
        loaded = _run_child(_BUDGET_SCRIPT, "prord", saved)
        unused = [name for name in loaded
                  if name in PRORD_UNUSED_MODULES
                  or name.startswith("repro.experiments")]
        assert not unused, f"loaded but unused: {unused}"
        assert "repro.mining.fold" in loaded

    def test_audited_replay_loads_the_auditor(self, saved):
        loaded = _run_child(_BUDGET_SCRIPT, "audited", saved)
        assert "repro.sim.audit" in loaded

"""Tests of the benchmark harness (run with ``python -m pytest bench``).

They need neither ``repro`` nor a benchmark run: the attribution is
checked on hand-made pstats tables and ``compare.py`` on hand-made
results files.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

import compare
import layers
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PKG = os.path.join(os.sep, "checkout", "src", "repro")


def src(*parts: str) -> str:
    return os.path.join(PKG, *parts)


# -- layers -------------------------------------------------------------------


@pytest.mark.parametrize("module, layer", [
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.cluster", "sim.pump"),
    ("repro.sim.kernel", "sim.pump"),
    ("repro.sim.soa", "sim.pump"),
    ("repro.sim.gdsf", "sim.cache"),
    ("repro.policies.prord", "policies"),
    ("repro.policies.replication", "replication"),
    ("repro.logs.clf", "logs"),
    ("repro.mining.popularity", "mining"),
    ("repro.core.system", "core"),
    ("repro.core", "core"),
    ("repro.sim.audit", "other"),
    ("repro.obs.telemetry", "other"),
    ("repro.sim.engines", "other"),
    (None, "other"),
])
def test_layer_of(module, layer):
    assert layers.layer_of(module) == layer


def test_module_resolver():
    resolve = layers.module_resolver(PKG)
    assert resolve(src("sim", "engine.py")) == "repro.sim.engine"
    assert resolve(src("core", "__init__.py")) == "repro.core"
    assert resolve("~") is None
    assert resolve(os.path.join(os.sep, "usr", "lib", "heapq.py")) is None


def _stats(table):
    """pstats-shaped dict from ``func: (tt, ct, {caller: (nc, tt, ct)})``."""
    return {
        func: (1, 1, tt, ct,
               {c: (nc, nc, etime, ectime)
                for c, (nc, etime, ectime) in callers.items()})
        for func, (tt, ct, callers) in table.items()
    }


ENGINE = (src("sim", "engine.py"), 10, "run")
SERVER = (src("sim", "server.py"), 20, "start_flow")
SYSTEM = (src("core", "system.py"), 30, "runtime")
LEN = ("~", 0, "<built-in method builtins.len>")
HEAPPUSH = (os.path.join(os.sep, "lib", "heapq.py"), 1, "heappush")
LT = ("~", 0, "<method '__lt__'>")
DEEPCOPY = (os.path.join(os.sep, "lib", "copy.py"), 1, "deepcopy")
COPY_DICT = (os.path.join(os.sep, "lib", "copy.py"), 2, "_deepcopy_dict")
ROOT_FN = (os.path.join(os.sep, "lib", "other.py"), 1, "main")


def test_builtins_and_stdlib_charged_to_repro_caller():
    stats = _stats({
        ENGINE: (1.0, 2.0, {}),
        SERVER: (0.5, 0.9, {ENGINE: (3, 0.5, 0.9)}),
        # len is called from both repro layers; split by edge self time.
        LEN: (0.3, 0.3, {ENGINE: (5, 0.2, 0.2), SERVER: (2, 0.1, 0.1)}),
        # stdlib heappush (called from the server) calls a builtin.
        HEAPPUSH: (0.2, 0.3, {SERVER: (4, 0.2, 0.3)}),
        LT: (0.1, 0.1, {HEAPPUSH: (9, 0.1, 0.1)}),
    })
    resolve = layers.module_resolver(PKG)
    charged = layers.charged_self_times(stats, resolve)
    assert charged[ENGINE] == pytest.approx(1.2)
    assert charged[SERVER] == pytest.approx(0.5 + 0.1 + 0.2 + 0.1)
    by_layer = layers.layer_self_times(charged, resolve)
    assert set(by_layer) == set(layers.LAYERS)
    assert by_layer["sim.engine"] == pytest.approx(1.2)
    assert by_layer["sim.server"] == pytest.approx(0.9)
    assert sum(by_layer.values()) == pytest.approx(2.1)


def test_recursive_stdlib_charged_through_the_cycle():
    stats = _stats({
        SYSTEM: (0.1, 1.1, {}),
        DEEPCOPY: (0.4, 1.0, {SYSTEM: (1, 0.1, 1.0),
                              COPY_DICT: (50, 0.3, 0.8)}),
        COPY_DICT: (0.5, 0.9, {DEEPCOPY: (50, 0.5, 0.9)}),
        LEN: (0.1, 0.1, {COPY_DICT: (50, 0.1, 0.1)}),
    })
    resolve = layers.module_resolver(PKG)
    by_layer = layers.layer_self_times(
        layers.charged_self_times(stats, resolve), resolve)
    assert by_layer["core"] == pytest.approx(1.1)
    assert by_layer["other"] == pytest.approx(0.0)


def test_time_without_repro_ancestor_is_other():
    stats = _stats({
        ROOT_FN: (0.2, 0.5, {}),
        LEN: (0.3, 0.3, {ROOT_FN: (1, 0.3, 0.3)}),
    })
    resolve = layers.module_resolver(PKG)
    by_layer = layers.layer_self_times(
        layers.charged_self_times(stats, resolve), resolve)
    assert by_layer["other"] == pytest.approx(0.5)


def test_entry_point_counts_nested_overrides_once():
    prord = (src("policies", "prord.py"), 5, "route")
    lard = (src("policies", "lard.py"), 6, "route")
    replication = (src("policies", "replication.py"), 7, "route")
    cluster = (src("sim", "cluster.py"), 8, "_route_request")
    stats = _stats({
        cluster: (0.1, 1.0, {}),
        prord: (0.3, 0.8, {cluster: (100, 0.3, 0.8)}),
        lard: (0.2, 0.2, {prord: (40, 0.2, 0.2)}),
        replication: (0.1, 0.1, {cluster: (7, 0.1, 0.1)}),
    })
    entries = layers.entry_point_stats(stats, layers.module_resolver(PKG))
    assert entries["policies.route"] == (100, pytest.approx(0.8))
    assert entries["sim.cache.insert"] == (0, 0.0)
    assert set(entries) == set(layers.ENTRY_POINTS)


# -- the declared metric set ----------------------------------------------------


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["workloads"]
             + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    bad = [n for n in names if not NAME.match(n)]
    assert not bad
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_workloads_match_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for spec in run.WORKLOADS.values():
        assert spec["input"] in run.INPUTS


def test_emitted_metrics_match_declared():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == run.per_layer_units()


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["better"] in ("lower", "higher")


def test_missing_program_fails_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "lard-synthetic", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


# -- compare.py -----------------------------------------------------------------


def _stat(median, spread=0.01):
    return {"median": median, "q1": median * (1 - spread / 2),
            "q3": median * (1 + spread / 2), "n": 5}


def _results(pipeline=2.0, events=100_000.0, rss=80.0, setup=0.3,
             spread=0.01, sha="in", report="rep", events_count=10):
    return {"workloads": {"w": {
        "input_sha256": sha, "report_sha256": report,
        "counters": {"sim.engine.events": events_count},
        "end_to_end": {
            "pipeline_s": _stat(pipeline, spread),
            "setup_s": _stat(setup, spread),
            "events_per_s": _stat(events, spread),
            "peak_rss_mb": _stat(rss, spread),
        },
    }}}


def _verdicts(a, b):
    lines, code = compare.compare(a, b, BENCHMARK["end_to_end"])
    found = {}
    for line in lines:
        if " -> " in line:
            metric = line.split()[1].rstrip(":")
            found[metric] = line.rsplit(" -> ", 1)[1]
    return found, code, lines


def test_compare_within():
    found, code, _ = _verdicts(_results(), _results(pipeline=2.05))
    assert set(found.values()) == {"within"} and code == 0


def test_compare_regressed_and_improved():
    found, code, _ = _verdicts(
        _results(), _results(pipeline=2.5, events=150_000.0))
    assert found["pipeline_s"] == "regressed"
    assert found["events_per_s"] == "improved"
    assert code == 1
    found, code, _ = _verdicts(_results(), _results(pipeline=1.5))
    assert found["pipeline_s"] == "improved" and code == 0


def test_compare_unresolved_when_iqr_exceeds_bound():
    found, code, _ = _verdicts(_results(), _results(spread=0.3))
    assert set(found.values()) == {"unresolved"} and code == 1


def test_compare_exact_counters_and_report():
    _, code, lines = _verdicts(_results(), _results(events_count=11))
    assert code == 1 and any("counters differ" in ln for ln in lines)
    _, code, lines = _verdicts(_results(), _results(report="other"))
    assert code == 1 and any("report_sha256" in ln for ln in lines)


def test_compare_invalid_when_inputs_differ():
    _, code, lines = _verdicts(_results(), _results(sha="other"))
    assert code == 2 and any("invalid" in ln for ln in lines)

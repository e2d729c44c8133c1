"""End-to-end and per-layer benchmark: CLF workload on disk -> report.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace 0|1]

Generates the saved workload directories for seed ``S`` under
``bench/.work/<S>/`` (once; later runs reuse them), then runs the
pipeline over each selected workload in fresh child processes, one
child at a time:

* timed reps, round-robin across workloads, until ``T`` seconds per
  workload have passed (at least ``MIN_REPS`` each);
* one traced rep per workload, each stage under ``cProfile`` (skipped
  with ``--workload`` and ``--trace 0``, which print no layer metrics);
* one audited rep per workload through ``run_policy(..., audit=True)``.

Every metric is printed as ``workload metric value unit``; the full
results go to ``bench/out/results.json`` and the stage spans to
``bench/out/trace.json``.  With ``--workload`` the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The exit code is non-zero if any correctness check
failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

#: Saved inputs.  The preset generates ``duration_s`` of sustained load
#: at ``session_rate`` sessions/s (the QUICK experiment rates); the
#: evaluation trace keeps its first ``requests`` arrivals.  ``scale``
#: sets the training log's size; ``stretch`` widens its time axis.
INPUTS = {
    "synthetic": {"preset": "synthetic", "base_seed": 303, "scale": 1.0,
                  "session_rate": 420.0, "duration_s": 6.0,
                  "requests": 30_000},
    "worldcup": {"preset": "worldcup", "base_seed": 202, "scale": 0.05,
                 "session_rate": 320.0, "duration_s": 6.0,
                 "requests": 30_000},
    "worldcup-long-log": {"preset": "worldcup", "base_seed": 202,
                          "scale": 0.1, "stretch": 120.0,
                          "session_rate": 320.0, "duration_s": 3.0,
                          "requests": 12_000},
}

#: Workloads: an input plus policy, aggregate cluster memory as a share
#: of site bytes, and whether the logs stream from disk.
WORKLOADS = {
    "lard-synthetic": {"input": "synthetic", "policy": "lard",
                       "memory": 0.30, "stream": False},
    "prord-synthetic": {"input": "synthetic", "policy": "prord",
                        "memory": 0.30, "stream": False},
    "prord-worldcup-lowmem": {"input": "worldcup", "policy": "prord",
                              "memory": 0.05, "stream": False},
    "prord-worldcup-stream": {"input": "worldcup-long-log",
                              "policy": "prord", "memory": 0.30,
                              "stream": True},
}

#: End-to-end metrics: name -> unit.  Medians over the timed reps.
END_TO_END = {"pipeline_s": "s", "setup_s": "s", "events_per_s": "1/s",
              "peak_rss_mb": "MB"}
MIN_REPS = 5
CHILD_TIMEOUT_S = 60
MINE_PHASES = ("mine.sessionize", "mine.depgraph", "mine.bundles",
               "mine.categorize", "mine.popularity", "mine.stream",
               "mine.stream.finish")
#: Counters that must repeat exactly across reps.
COUNTERS = (
    "sim.engine.events", "sim.engine.calendar_high_water",
    "sim.frontend.dispatcher_lookups", "sim.cache.hits", "sim.cache.misses",
    "sim.cache.evictions", "sim.server.prefetches_issued",
    "sim.server.prefetch_useful", "sim.server.prefetch_wasted",
    "replication.rounds", "replication.replicas_pushed",
    "logs.records_parsed", "mining.num_sessions", "mining.num_sequences",
    "model.requests", "policies.flow.embedded_forwarded",
    "policies.flow.prefetch_routed", "policies.flow.assignment_routed",
    "policies.flow.dispatched", "policies.flow.dynamic_affinity",
)
MODEL_UNITS = {
    "model.throughput_rps": "rps", "model.p50_response_ms": "ms",
    "model.p99_response_ms": "ms", "model.hit_rate": "ratio",
    "model.dispatches": "count", "model.handoffs": "count",
    "model.replicated_bytes": "bytes",
    "model.frontend_utilization": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric this benchmark emits, with its unit."""
    units = {f"{span}_s": "s" for span in
             ("logs.load", "mining.mine", "core.build", "sim.simulate")}
    units.update({f"mining.phase.{p}_s": "s" for p in MINE_PHASES})
    for stage in ("load", "mine", "build", "simulate"):
        units.update({f"{stage}.{layer}.self_s": "s"
                      for layer in layers.LAYERS})
    units.update({f"simulate.{layer}.share": "ratio"
                  for layer in layers.LAYERS})
    for entry in layers.ENTRY_POINTS:
        units[f"{entry}.calls"] = "count"
        units[f"{entry}.us"] = "us"
    units["trace.overhead"] = "ratio"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["logs.records_dropped"] = "count"
    units.update({"sim.cache.hit_ratio": "ratio",
                  "sim.server.prefetch_precision": "ratio",
                  "sim.frontend.dispatch_ratio": "ratio"})
    units.update(MODEL_UNITS)
    return units


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(*args: str) -> tuple[float, dict]:
    """Run one child to completion; returns (spawn stamp, its JSON)."""
    stamp = time.monotonic()
    argv = [sys.executable, str(CHILD), *args]
    if args[0] == "run":
        argv.append(repr(stamp))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: "
                          + " | ".join(tail))
    try:
        return stamp, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"child {args[0]} printed no result") from None


def dir_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name == "manifest.json":
            continue
        digest.update(path.name.encode() + b"\0")
        with path.open("rb") as fp:
            for block in iter(lambda: fp.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def ensure_input(name: str, seed: int) -> tuple[Path, dict]:
    """The saved input directory for ``name`` at ``seed``, generated
    unless an intact copy from the same spec is already there."""
    spec = INPUTS[name]
    directory = BENCH_DIR / ".work" / str(seed) / name
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if (manifest.get("spec") == spec
                and manifest.get("input_sha256") == dir_sha256(directory)):
            return directory, manifest
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    start = time.monotonic()
    _, info = spawn("gen", json.dumps(spec), str(seed), str(directory))
    manifest = {"spec": spec, "seed": seed, **info,
                "gen_s": time.monotonic() - start,
                "input_sha256": dir_sha256(directory)}
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return directory, manifest


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class WorkloadRun:
    """Reps of one workload and the checks between them."""

    def __init__(self, name: str, directory: Path, manifest: dict):
        self.name = name
        self.spec = WORKLOADS[name]
        self.directory = directory
        self.manifest = manifest
        self.timed: list[dict] = []
        self.traced: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict | None = None
        self.runs: list[dict] = []

    def rep(self, kind: str, t0: float) -> None:
        self.attempted += 1
        try:
            stamp, out = spawn("run", json.dumps(self.spec),
                               str(self.directory), kind)
        except ChildFailed as exc:
            self.failures.append(f"{kind}: {exc}")
            return
        problem = self.check(kind, out)
        if problem:
            self.failures.append(f"{kind}: {problem}")
            return
        run_id = f"{self.name}/{kind}/{self.attempted}"
        self.runs.append({"id": run_id, "kind": kind,
                          "spawned": stamp - t0,
                          "spans": [dict(s, start=s["start"] - t0,
                                         end=s["end"] - t0)
                                    for s in out.get("spans", [])]})
        if kind == "timed":
            self.timed.append(out)
        elif kind == "traced":
            self.traced = out

    def check(self, kind: str, out: dict) -> str | None:
        """Why this rep's output is wrong, or None."""
        requests = self.manifest["requests"]
        if out["requests"] != requests:
            return f"loaded {out['requests']} requests, saved {requests}"
        if kind == "audit":
            audit = out["audit"]
            if audit["violations"] or audit["completed"] != requests:
                return f"audit: {audit}"
        elif out["report"]["all_completed"] != requests:
            return (f"{requests - out['report']['all_completed']} "
                    "requests left incomplete")
        if self.reference is None and kind != "audit":
            self.reference = out
        reference = self.reference or out
        if out["report_sha256"] != reference["report_sha256"]:
            diff = [k for k, v in out["report"].items()
                    if reference["report"][k] != v]
            return f"report differs from the first rep in {diff}"
        if kind != "audit":
            if set(out["counters"]) != set(COUNTERS):
                return f"counter names {sorted(out['counters'])}"
            diff = [k for k, v in out["counters"].items()
                    if reference["counters"][k] != v]
            if diff:
                return f"counters differ from the first rep: {diff}"
            dropped = (self.manifest["training_records"]
                       - out["counters"]["logs.records_parsed"])
            if dropped:
                return f"{dropped} training log records dropped"
        return None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> dict[str, dict]:
        return {name: {**quartiles([rep[name] for rep in self.timed]),
                       "unit": unit}
                for name, unit in END_TO_END.items()}

    def per_layer(self) -> dict[str, float]:
        """Per-layer values (needs the traced rep)."""
        median = statistics.median
        ref, traced = self.timed[0], self.traced
        out: dict[str, float] = {}
        for span in ("logs.load", "mining.mine", "core.build",
                     "sim.simulate"):
            out[f"{span}_s"] = median(
                [rep["stages"].get(span, 0.0) for rep in self.timed])
        for phase in MINE_PHASES:
            out[f"mining.phase.{phase}_s"] = median(
                [rep["phases"].get(phase, 0.0) for rep in self.timed])
        for stage, by_layer in traced["self_s"].items():
            out.update({f"{stage}.{layer}.self_s": s
                        for layer, s in by_layer.items()})
        for stage in ("load", "mine", "build"):
            if stage not in traced["self_s"]:
                out.update({f"{stage}.{layer}.self_s": 0.0
                            for layer in layers.LAYERS})
        simulate = traced["self_s"]["simulate"]
        total = sum(simulate.values())
        out.update({f"simulate.{layer}.share": s / total
                    for layer, s in simulate.items()})
        for entry, (calls, inclusive) in traced["entries"].items():
            out[f"{entry}.calls"] = calls
            out[f"{entry}.us"] = inclusive / calls * 1e6 if calls else 0.0
        # The traced rep is not calibrated (its profiler would see the
        # probe), so the overhead compares raw seconds.
        out["trace.overhead"] = (traced["wall"]["pipeline_s"] / median(
            [rep["wall"]["pipeline_s"] for rep in self.timed]))
        counters = ref["counters"]
        out.update(counters)
        out["logs.records_dropped"] = (self.manifest["training_records"]
                                       - counters["logs.records_parsed"])
        accesses = counters["sim.cache.hits"] + counters["sim.cache.misses"]
        issued = counters["sim.server.prefetches_issued"]
        out["sim.cache.hit_ratio"] = (counters["sim.cache.hits"] / accesses
                                      if accesses else 0.0)
        out["sim.server.prefetch_precision"] = (
            counters["sim.server.prefetch_useful"] / issued if issued
            else 0.0)
        out["sim.frontend.dispatch_ratio"] = (
            ref["model"]["model.dispatches"] / counters["model.requests"])
        out.update(ref["model"])
        return out

    def summary(self, traced: bool) -> dict:
        result = {
            "input": self.spec["input"],
            "input_sha256": self.manifest["input_sha256"],
            "report_sha256": (self.reference or {}).get("report_sha256"),
            "gen_s": self.manifest["gen_s"],
            "attempted": self.attempted, "failed": self.failed,
            "error_rate": self.failed / max(self.attempted, 1),
            "failures": self.failures,
        }
        if self.timed:
            result["end_to_end"] = self.end_to_end()
            result["wall"] = {
                name: quartiles([rep["wall"][name] for rep in self.timed])
                for name in ("pipeline_s", "setup_s")}
            result["slowdown"] = quartiles(
                [rep["slowdown"] for rep in self.timed])
            result["counters"] = self.timed[0]["counters"]
        if traced and self.timed and self.traced:
            result["per_layer"] = self.per_layer()
            result["top_functions"] = self.traced["top_functions"]
        return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace == 1 or args.workload is None
    t0 = time.monotonic()

    inputs = {}
    runs = {}
    for name in names:
        input_name = WORKLOADS[name]["input"]
        if input_name not in inputs:
            inputs[input_name] = ensure_input(input_name, args.seed)
        runs[name] = WorkloadRun(name, *inputs[input_name])

    deadline = time.monotonic() + seconds * len(names)
    while (time.monotonic() < deadline
           or any(len(r.timed) < MIN_REPS and r.attempted < 2 * MIN_REPS
                  for r in runs.values())):
        for run in runs.values():
            run.rep("timed", t0)
    for run in runs.values():
        if traced:
            run.rep("traced", t0)
        run.rep("audit", t0)

    results = {
        "schema": "prord-bench/v1",
        "seed": args.seed, "seconds": seconds, "trace": int(traced),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "wall_s": time.monotonic() - t0,
        "workloads": {name: run.summary(traced)
                      for name, run in runs.items()},
    }
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    results["correct"] = failed == 0
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "results.json").write_text(json.dumps(results, indent=1))
    (out_dir / "trace.json").write_text(json.dumps(
        {"runs": [span for r in runs.values() for span in r.runs]}))

    layer_units = per_layer_units()
    for name, summary in results["workloads"].items():
        for failure in summary["failures"]:
            print(f"{name} FAILED {failure}", file=sys.stderr)
        for metric, stats in summary.get("end_to_end", {}).items():
            print(f"{name} {metric} {stats['median']:.6g} {stats['unit']} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']}")
        for metric, value in summary.get("per_layer", {}).items():
            print(f"{name} {metric} {value:.6g} {layer_units[metric]}")
        print(f"{name} gen_s {summary['gen_s']:.3f} s (input generation)")

    if args.workload is not None:
        summary = results["workloads"][args.workload]
        if args.trace:
            declared = {m["name"] for m in bench["per_layer"]}
            values = summary.get("per_layer", {})
            metrics = {m: {"value": values[m], "unit": layer_units[m]}
                       for m in values}
        else:
            declared = {m["name"] for m in bench["end_to_end"]}
            metrics = {m: {"value": s["median"], "unit": s["unit"]}
                       for m, s in summary.get("end_to_end", {}).items()}
        if set(metrics) != declared:
            print(f"error: emitted metrics differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ declared)}", file=sys.stderr)
            results["correct"] = False
        print(json.dumps({"correct": results["correct"],
                          "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    else:
        print(f"correct={results['correct']} attempted={attempted} "
              f"failed={failed} wall_s={results['wall_s']:.1f}")
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

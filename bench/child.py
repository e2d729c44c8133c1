"""One benchmark child process; prints one JSON line on stdout.

    child.py gen <input-spec-json> <seed> <out-dir>
    child.py run <workload-spec-json> <input-dir> <kind> <spawn-stamp>

``gen`` writes one saved workload directory.  ``run`` takes it through
the pipeline once, with the public steps ``run_policy`` uses:
``load_workload`` -> ``mine_models`` (mining policies only, no model
cache) -> ``build_policy`` + ``ClusterSimulator`` -> ``run()``.

``kind`` is ``timed`` (spans, calibrated), ``traced`` (each stage under
its own ``cProfile.Profile``, raw) or ``audit`` (the user entry point,
``run_policy(..., audit=True)``, untimed).  ``spawn-stamp`` is the
parent's ``time.monotonic()`` just before it started this process;
Linux's CLOCK_MONOTONIC is system-wide, so the child measures set-up
from the moment it was spawned.

Calibration: the host's vCPUs share physical cores with other tenants,
and a busy sibling hyperthread slows this process by up to ~1.8x, in
bursts from milliseconds to tens of seconds.  A timed rep therefore runs
under ``SpeedProbe``: every ``PROBE_EVERY_S`` of wall time a SIGALRM
handler times a fixed pure-Python loop.  Each span's duration, less the
handler's own time inside it, is divided by the median slowdown of the
probes taken inside it: the times are *calibrated seconds*, what the
span would have taken on an idle core of the reference host.  The raw
seconds are reported beside them.  Python runs the handler between two
bytecodes of the pipeline and the handler touches none of its state;
the correctness gate compares every rep's report with the unprobed
audited run.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import heapq
import json
import pstats
import resource
import signal
import statistics
import sys
import time

import layers

N_BACKENDS = 8
WARMUP_FRACTION = 0.15
#: Pipeline stages, in order: span name -> short name used in metrics.
STAGES = {"logs.load": "load", "mining.mine": "mine",
          "core.build": "build", "sim.simulate": "simulate"}
#: PRORD's Fig. 4 routing paths (``PRORDPolicy.flow_counts`` keys); zero
#: for policies that do not count them.
FLOW_KEYS = ("embedded_forwarded", "prefetch_routed", "assignment_routed",
             "dispatched", "dynamic_affinity")
PROBE_EVERY_S = 0.02
PROBE_LOOPS = 500
#: Seconds one probe loop takes on an idle core of the reference host
#: (2-vCPU Intel Xeon VM, CPython 3.11): the 10th percentile of 22,000
#: probes taken over four workloads.
PROBE_REF_S = 0.0008


def probe_loop() -> float:
    """Seconds for a fixed loop of the pipeline's kind of work: string
    splitting, dict updates, small objects and heap operations."""
    class Item:
        __slots__ = ("host", "size")

        def __init__(self, host: str, size: int) -> None:
            self.host = host
            self.size = size

    heap: list = []
    totals: dict[str, int] = {}
    start = time.monotonic()
    for i in range(PROBE_LOOPS):
        fields = (f'h{i % 977} - - "GET /p{i % 3001}.html HTTP/1.1" '
                  f'200 {i % 9000}').split()
        item = Item(fields[0], int(fields[-1]))
        totals[item.host] = totals.get(item.host, 0) + item.size
        heapq.heappush(heap, (i * 16807 % 65536, i, item))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.monotonic() - start


class SpeedProbe:
    """Samples the host's speed while a timed rep runs."""

    def __init__(self) -> None:
        #: (start, probe loop seconds, handler seconds) per sample
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        enabled = gc.isenabled()
        gc.disable()
        seconds = probe_loop()
        if enabled:
            gc.enable()
        self.samples.append((start, seconds, time.monotonic() - start))

    def slowdown(self, samples) -> float:
        probes = [sample[1] for sample in samples]
        return statistics.median(probes) / PROBE_REF_S if probes else 1.0

    def calibrate(self, start: float, end: float) -> tuple[float, float]:
        """Raw and calibrated seconds of ``[start, end)``, both without
        the handler's own time.  A span too short to hold a probe uses
        the whole rep's slowdown; an unprobed rep is not calibrated."""
        inside = [s for s in self.samples if start <= s[0] < end]
        raw = end - start - sum(s[2] for s in inside)
        return raw, raw / self.slowdown(inside or self.samples)


def generate(spec: dict, seed: int, out_dir: str) -> dict:
    """Write the saved workload for one input spec and seed.

    The preset generates a sustained load (sessions keep arriving for
    ``duration_s``); the evaluation trace is then cut to its first
    ``requests`` arrivals, so every seed replays exactly the same number
    of requests, all inside the sustained window.  ``stretch`` widens the
    training log's time axis so that sessions retire while it streams.
    """
    from repro.logs.store import save_workload
    from repro.logs.workloads import Workload, make_workload

    workload = make_workload(
        spec["preset"], scale=spec["scale"], seed=spec["base_seed"] + seed,
        session_rate=spec["session_rate"], duration_s=spec["duration_s"],
    )
    if len(workload.trace) < spec["requests"]:
        raise SystemExit(f"input generated only {len(workload.trace)} "
                         f"requests, need {spec['requests']}")
    training = workload.training_records
    stretch = spec.get("stretch", 1.0)
    if stretch != 1.0:
        t0 = training[0].timestamp
        training = [rec.with_time(t0 + (rec.timestamp - t0) * stretch)
                    for rec in training]
    save_workload(Workload(workload.name, workload.site, training,
                           workload.trace.head(spec["requests"])), out_dir)
    return {"training_records": len(training),
            "requests": spec["requests"], "site_files": workload.num_files}


class Pipeline:
    """One rep: a span per stage, optionally profiling each."""

    def __init__(self, traced: bool, package_dir: str):
        self.traced = traced
        self.spans: list[dict] = []
        self.module_of = layers.module_resolver(package_dir)
        self.self_s: dict[str, dict[str, float]] = {}
        self.entries = {name: [0, 0.0] for name in layers.ENTRY_POINTS}
        self.charged: dict = {}

    def span(self, name: str, start: float, end: float,
             parent: str | None = "pipeline") -> None:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent})

    def stage(self, name: str, fn, *args, **kwargs):
        profile = cProfile.Profile() if self.traced else None
        start = time.monotonic()
        if profile is not None:
            profile.enable()
        result = fn(*args, **kwargs)
        if profile is not None:
            profile.disable()
        self.span(name, start, time.monotonic())
        if profile is not None:
            self._attribute(STAGES[name], profile)
        return result

    def _attribute(self, stage: str, profile: cProfile.Profile) -> None:
        stats = pstats.Stats(profile).stats
        charged = layers.charged_self_times(stats, self.module_of)
        self.self_s[stage] = layers.layer_self_times(charged, self.module_of)
        for func, seconds in charged.items():
            self.charged[func] = self.charged.get(func, 0.0) + seconds
        for name, (calls, inclusive) in layers.entry_point_stats(
                stats, self.module_of).items():
            self.entries[name][0] += calls
            self.entries[name][1] += inclusive


def report_digest(report) -> tuple[dict, str]:
    fields = dataclasses.asdict(report)
    blob = json.dumps(fields, sort_keys=True).encode()
    return fields, hashlib.sha256(blob).hexdigest()


def run(spec: dict, directory: str, kind: str, spawned: float) -> dict:
    probe = SpeedProbe()
    if kind == "timed":
        probe.start()
    import repro
    from repro.core import system
    from repro.core.config import SimulationParams
    from repro.logs.store import load_workload
    from repro.obs.profiler import PhaseProfiler
    from repro.sim.cluster import ClusterSimulator
    setup_done = time.monotonic()

    policy_name, memory = spec["policy"], spec["memory"]
    base_params = SimulationParams(n_backends=N_BACKENDS)
    if kind == "audit":
        workload = load_workload(directory, stream=spec["stream"])
        result = system.run_policy(
            workload, policy_name, base_params, cache_fraction=memory,
            warmup_fraction=WARMUP_FRACTION, audit=True)
        fields, digest = report_digest(result.report)
        return {"kind": kind, "report_sha256": digest, "report": fields,
                "requests": len(workload.trace),
                "audit": dataclasses.asdict(result.audit)}

    pipe = Pipeline(kind == "traced", repro.__path__[0])
    pipe.span("setup", spawned, setup_done)
    workload = pipe.stage("logs.load", load_workload, directory,
                          stream=spec["stream"])
    params = base_params.with_overrides(
        cache_bytes=system.cache_bytes_for_fraction(
            workload, memory, N_BACKENDS))
    profiler = PhaseProfiler()
    models = None
    if policy_name in system.MINING_POLICY_NAMES:
        models = pipe.stage("mining.mine", system.mine_models, workload,
                            params, profiler=profiler)

    def build():
        mining = models.runtime(params) if models is not None else None
        policy, replicator = system.build_policy(policy_name, mining, params)
        return ClusterSimulator(workload.trace, policy, params,
                                replicator=replicator,
                                warmup_fraction=WARMUP_FRACTION)

    cluster = pipe.stage("core.build", build)
    result = pipe.stage("sim.simulate", cluster.run)
    probe.stop()
    pipe.span("pipeline", spawned, pipe.spans[-1]["end"], parent=None)

    wall: dict[str, float] = {}
    calibrated: dict[str, float] = {}
    for span in pipe.spans[:-1]:
        wall[span["name"]], calibrated[span["name"]] = probe.calibrate(
            span["start"], span["end"])
    # PhaseProfiler's phases lie inside the mining span: scale them alike.
    mining = next((s for s in pipe.spans if s["name"] == "mining.mine"),
                  None)
    phase_scale = (calibrated["mining.mine"]
                   / (mining["end"] - mining["start"]) if mining else 1.0)
    stages = {name: calibrated.get(name, 0.0) for name in STAGES}
    fields, digest = report_digest(result.report)
    out = {
        "kind": kind,
        "setup_s": calibrated["setup"],
        "pipeline_s": sum(calibrated.values()),
        "events_per_s": (cluster.sim.events_processed
                         / stages["sim.simulate"]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "slowdown": probe.slowdown(probe.samples),
        "probes": len(probe.samples),
        "wall": {"setup_s": wall["setup"],
                 "pipeline_s": sum(wall.values())},
        "stages": stages,
        "phases": {name: t.wall_s * phase_scale
                   for name, t in profiler.items()},
        "spans": pipe.spans,
        "report_sha256": digest,
        "report": fields,
        "requests": len(workload.trace),
        "counters": counters(workload, models, cluster, result),
        "model": model_metrics(result),
    }
    if pipe.traced:
        out["self_s"] = pipe.self_s
        out["entries"] = pipe.entries
        out["top_functions"] = layers.top_functions(pipe.charged,
                                                    pipe.module_of)
    return out


def counters(workload, models, cluster, result) -> dict[str, int]:
    """Exact counters from public attributes (repeat exactly per rep)."""
    caches = [s.cache for s in cluster.servers]
    servers = cluster.servers
    replicator = cluster.replicator
    flow_counts = getattr(cluster.policy, "flow_counts", None)
    flows = flow_counts() if flow_counts else dict.fromkeys(FLOW_KEYS, 0)
    training = workload.training_records
    parsed = (training.stats.parsed if hasattr(training, "stats")
              else len(training))
    out = {
        "sim.engine.events": cluster.sim.events_processed,
        "sim.engine.calendar_high_water": cluster.sim.calendar_high_water,
        "sim.frontend.dispatcher_lookups": cluster.dispatcher.lookups,
        "sim.cache.hits": sum(c.hits for c in caches),
        "sim.cache.misses": sum(c.misses for c in caches),
        "sim.cache.evictions": sum(c.evictions for c in caches),
        "sim.server.prefetches_issued":
            sum(s.prefetches_issued for s in servers),
        "sim.server.prefetch_useful": sum(s.prefetch_useful for s in servers),
        "sim.server.prefetch_wasted": sum(s.prefetch_wasted for s in servers),
        "replication.rounds": replicator.rounds if replicator else 0,
        "replication.replicas_pushed":
            replicator.replicas_pushed if replicator else 0,
        "logs.records_parsed": parsed,
        "mining.num_sessions": models.num_sessions if models else 0,
        "mining.num_sequences": models.num_sequences if models else 0,
        "model.requests": result.report.all_completed,
    }
    out.update({f"policies.flow.{k}": v for k, v in flows.items()})
    return out


def model_metrics(result) -> dict[str, float]:
    """The modelled system, in simulated time."""
    report = result.report
    return {
        "model.throughput_rps": report.throughput_rps,
        "model.p50_response_ms": report.median_response_s * 1e3,
        "model.p99_response_ms": report.p99_response_s * 1e3,
        "model.hit_rate": report.hit_rate,
        "model.dispatches": report.dispatches,
        "model.handoffs": report.handoffs,
        "model.replicated_bytes": report.replicated_bytes,
        "model.frontend_utilization": result.frontend_utilization,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "gen":
        out = generate(json.loads(argv[1]), int(argv[2]), argv[3])
    elif mode == "run":
        out = run(json.loads(argv[1]), argv[2], argv[3], float(argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

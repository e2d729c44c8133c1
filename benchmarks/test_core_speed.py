"""Core-engine speed benchmark — emits and gates ``BENCH_core.json``.

Measures the simulation hot path (events/sec, best of 3) for WRR, LARD
and PRORD on the BENCH-scale synthetic workload, the calendar
high-water mark under the streaming arrival pump, and the mined-model
cache round trip.  The artifact is the baseline every future perf PR is
judged against: the gate fails when the machine-normalised aggregate
events/sec regresses more than ``BENCH_CORE_TOLERANCE`` (default 15%)
against the committed ``BENCH_core.json``.

Environment knobs:

* ``BENCH_CORE_JSON``      — fresh-artifact path (default: repo root)
* ``BENCH_CORE_BASELINE``  — committed baseline to gate against
  (default: ``BENCH_core.json`` at the repo root, so CI can redirect
  the fresh artifact without losing the gate)
* ``BENCH_CORE_TOLERANCE`` — allowed fractional regression (default 0.15)
* ``BENCH_CORE_GATE``      — set to ``0`` to measure without gating

Raw events/sec is machine-dependent, so the gate compares *normalised*
throughput: events/sec divided by a pure-Python heap-churn calibration
score measured on the same machine at the same time.  That ratio is
stable across hosts to well within the tolerance; the raw numbers are
still recorded for humans.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from pathlib import Path

import pytest

from repro.core import SimulationParams
from repro.core.system import (
    MINING_POLICY_NAMES,
    build_policy,
    cache_bytes_for_fraction,
    mine_models,
)
from repro.experiments.common import loaded_workload
from repro.mining import cached_mine_models
from repro.obs.profiler import PhaseProfiler
from repro.sim.cluster import ClusterSimulator

from conftest import BENCH

BENCH_CORE_SCHEMA = "prord-bench-core/v2"
POLICIES = ("wrr", "lard", "prord")
ROUNDS = 3

_REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = Path(os.environ.get("BENCH_CORE_JSON",
                               _REPO_ROOT / "BENCH_core.json"))
BASELINE = Path(os.environ.get("BENCH_CORE_BASELINE",
                               _REPO_ROOT / "BENCH_core.json"))
TOLERANCE = float(os.environ.get("BENCH_CORE_TOLERANCE", "0.15"))
GATE = os.environ.get("BENCH_CORE_GATE", "1") != "0"


def _calibration_score() -> float:
    """Machine-speed proxy: heap-churn ops/sec (best of 3).

    The same primitive mix the engine's hot loop stresses — heappush,
    heappop, tuple compares — so dividing events/sec by this score
    cancels most cross-machine (and most interpreter-version) variance.
    """
    n = 200_000
    best = 0.0
    for _ in range(3):
        h: list[tuple[int, int]] = []
        t0 = time.perf_counter()
        for i in range(n):
            heapq.heappush(h, ((i * 16807) % 65536, i))
            if len(h) > 64:
                heapq.heappop(h)
        best = max(best, n / (time.perf_counter() - t0))
    return best


@pytest.fixture(scope="module")
def measurements():
    """Run the whole core benchmark once; tests assert over the result."""
    workload = loaded_workload("synthetic", BENCH)
    params = SimulationParams(n_backends=BENCH.n_backends).with_overrides(
        cache_bytes=cache_bytes_for_fraction(
            workload, BENCH.cache_fraction, BENCH.n_backends))

    profiler = PhaseProfiler()
    with profiler.phase("calibrate"):
        calibration = _calibration_score()

    models = mine_models(workload, params, profiler=profiler)

    policies: dict[str, dict] = {}
    for name in POLICIES:
        best = None
        for _ in range(ROUNDS):
            mining = (models.runtime(params)
                      if name in MINING_POLICY_NAMES else None)
            policy, replicator = build_policy(name, mining, params)
            cluster = ClusterSimulator(
                workload.trace, policy, params, replicator=replicator,
                warmup_fraction=BENCH.warmup_fraction,
                window_s=BENCH.duration_s)
            t0 = time.perf_counter()
            result = cluster.run()
            wall = time.perf_counter() - t0
            if best is None or wall < best["wall_s"]:
                best = {
                    "events": cluster.sim.events_processed,
                    "wall_s": wall,
                    "completed": result.report.completed,
                    "calendar_high_water": cluster.sim.calendar_high_water,
                }
        best["events_per_s"] = best["events"] / best["wall_s"]
        best["normalized"] = best["events_per_s"] / calibration
        profiler.record(f"simulate.{name}", best["wall_s"],
                        units=best["events"])
        policies[name] = best

    # Calendar footprint: the same trace, eager vs pumped.
    eager = ClusterSimulator(
        workload.trace, build_policy("lard")[0], params,
        warmup_fraction=BENCH.warmup_fraction, window_s=BENCH.duration_s,
        eager_arrivals=True)
    eager.run()

    # Mined-model cache round trip (cold mine vs warm disk load).
    cache_dir = ARTIFACT.parent / ".bench_model_cache"
    cold_profiler, warm_profiler = PhaseProfiler(), PhaseProfiler()
    t0 = time.perf_counter()
    cached_mine_models(workload, params, cache=cache_dir,
                       profiler=cold_profiler)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cached_mine_models(workload, params, cache=cache_dir,
                       profiler=warm_profiler)
    warm_s = time.perf_counter() - t0

    aggregate = sum(p["events"] for p in policies.values()) / sum(
        p["wall_s"] for p in policies.values())
    return {
        "schema": BENCH_CORE_SCHEMA,
        "workload": "synthetic",
        "scale": BENCH.name,
        "calibration_ops_per_s": round(calibration, 1),
        "policies": {
            name: {
                "events": p["events"],
                "best_wall_s": round(p["wall_s"], 6),
                "events_per_s": round(p["events_per_s"], 1),
                "normalized_events_per_s": round(p["normalized"], 6),
                "completed": p["completed"],
                "calendar_high_water": p["calendar_high_water"],
            }
            for name, p in policies.items()
        },
        "aggregate_events_per_s": round(aggregate, 1),
        "normalized_aggregate": round(aggregate / calibration, 6),
        "calendar": {
            "trace_requests": len(workload.trace),
            "high_water_eager": eager.sim.calendar_high_water,
            "high_water_pumped":
                policies["lard"]["calendar_high_water"],
        },
        "model_cache": {
            "cold_mine_s": round(cold_s, 6),
            "warm_load_s": round(warm_s, 6),
            "warm_phases": sorted(
                name for name, _ in warm_profiler.items()),
        },
        "phase_timings": {
            name: {"wall_s": round(t.wall_s, 6), "calls": t.calls,
                   "units": t.units}
            for name, t in profiler.items()
        },
    }


def test_all_policies_made_progress(measurements):
    for name, p in measurements["policies"].items():
        assert p["completed"] > 0, name
        assert p["events_per_s"] > 0, name


def test_calendar_high_water_bounded_by_in_flight_work(measurements):
    cal = measurements["calendar"]
    n = cal["trace_requests"]
    # Eager scheduling's calendar scales with the trace; the pump's holds
    # one pending arrival plus in-flight work.
    assert cal["high_water_eager"] >= n
    assert cal["high_water_pumped"] <= 1 + 512
    assert cal["high_water_pumped"] < n // 2


def test_model_cache_round_trip(measurements):
    mc = measurements["model_cache"]
    # The warm pass must not have run any mining phase.
    assert not any(p.startswith("mine.") for p in mc["warm_phases"])
    assert "modelcache.hit" in mc["warm_phases"]
    # At BENCH scale, mining is now fast enough that unpickling is not
    # reliably quicker — only guard against the cache being
    # pathologically slower than mining (it pays off at full scale).
    assert mc["warm_load_s"] < mc["cold_mine_s"] * 3


def _baseline_normalized(committed: dict) -> float | None:
    """Gate metric from a committed artifact: the machine-normalised
    aggregate events/sec over the three policy rows.  Other schemas
    gate nothing.
    """
    if committed.get("schema") == BENCH_CORE_SCHEMA:
        value = committed.get("normalized_aggregate")
        return float(value) if value is not None else None
    return None


def test_events_per_sec_gate_and_artifact(measurements):
    """Gate against the committed baseline, then write the fresh artifact."""
    committed = None
    if BASELINE.exists():
        try:
            committed = json.loads(BASELINE.read_text())
        except ValueError:
            committed = None
    baseline = (_baseline_normalized(committed)
                if committed is not None else None)
    if baseline is not None:
        current = measurements["normalized_aggregate"]
        floor = baseline * (1.0 - TOLERANCE)
        if GATE:
            assert current >= floor, (
                f"core regression: normalized aggregate {current:.4f} "
                f"below {floor:.4f} ({TOLERANCE:.0%} under committed "
                f"baseline {baseline:.4f}; raw "
                f"{measurements['aggregate_events_per_s']:,.0f} ev/s vs "
                f"committed {committed['aggregate_events_per_s']:,.0f})"
            )
    ARTIFACT.write_text(json.dumps(measurements, indent=2) + "\n")
    print(f"\n[wrote {ARTIFACT}]")
    for name, p in measurements["policies"].items():
        print(f"  {name:>6s}: {p['events_per_s']:>12,.0f} events/s "
              f"({p['events']} events, {p['best_wall_s']:.3f} s)")
    print(f"  aggregate: {measurements['aggregate_events_per_s']:,.0f} "
          f"events/s (normalized {measurements['normalized_aggregate']:.4f})")

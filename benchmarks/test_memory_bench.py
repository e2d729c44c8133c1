"""Peak-RSS memory benchmark — emits and gates ``BENCH_memory.json``.

Proves the streaming claim with numbers, twice over:

* **mining** — the one-pass fold over the WorldCup-preset training log
  (``BENCH_MEMORY_SCALE``, default 0.5 — ~450 k requests), streamed off
  disk from a ``CLFSource``, must peak at least
  ``BENCH_MEMORY_MIN_RATIO`` (default 4x) *below* the same fold over the
  log read into a list first (the "batch" row), and both must produce
  fingerprint-identical :class:`MinedModels`;
* **replay** — the end-to-end evaluation path: ``run_policy`` over a
  saved workload loaded with ``stream=True`` (lazy ``CLFSource`` +
  ``SidecarRequestSource``) must peak at least ``MIN_RATIO`` below the
  fully materialized load, and both replays must report field-for-field
  identical results.

Each pipeline runs in its own subprocess (``_mem_child.py``) because
``ru_maxrss`` is a per-process high-water mark; an import-only ``base``
child is subtracted from both so the comparison isolates pipeline
footprint from interpreter + import cost.

Environment knobs (mirroring the core-speed bench):

* ``BENCH_MEMORY_JSON``      — fresh-artifact path (default: repo root)
* ``BENCH_MEMORY_BASELINE``  — committed baseline to gate against
* ``BENCH_MEMORY_TOLERANCE`` — allowed fractional growth of the streamed
  pipelines' net peak RSS (default 0.25)
* ``BENCH_MEMORY_MIN_RATIO`` — required batch/stream net-RSS advantage
  (default 4.0; the acceptance floor, for mining and replay alike)
* ``BENCH_MEMORY_GATE``      — set to ``0`` to measure without gating
* ``BENCH_MEMORY_SCALE``     — WorldCup scale knob for mining
  (default 0.5)
* ``BENCH_MEMORY_REPLAY_SCALE`` — WorldCup scale knob for the saved
  workload the replay row loads and simulates (default 0.15 — the
  replay children *run* the simulator, so they trade scale for
  wall-clock)
* ``BENCH_MEMORY_STRETCH``   — time-axis stretch applied to the
  generated mining log (default 120).  The synthetic presets compress
  huge request counts into minutes; real logs of this size span hours
  to days, and session retirement — the whole point of streaming —
  only exists on a realistic timescale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_MEMORY_SCHEMA = "prord-bench-memory/v2"

_REPO_ROOT = Path(__file__).resolve().parent.parent
_CHILD = Path(__file__).resolve().parent / "_mem_child.py"
ARTIFACT = Path(os.environ.get("BENCH_MEMORY_JSON",
                               _REPO_ROOT / "BENCH_memory.json"))
BASELINE = Path(os.environ.get("BENCH_MEMORY_BASELINE",
                               _REPO_ROOT / "BENCH_memory.json"))
TOLERANCE = float(os.environ.get("BENCH_MEMORY_TOLERANCE", "0.25"))
MIN_RATIO = float(os.environ.get("BENCH_MEMORY_MIN_RATIO", "4.0"))
GATE = os.environ.get("BENCH_MEMORY_GATE", "1") != "0"
SCALE = float(os.environ.get("BENCH_MEMORY_SCALE", "0.5"))
REPLAY_SCALE = float(os.environ.get("BENCH_MEMORY_REPLAY_SCALE", "0.15"))
STRETCH = float(os.environ.get("BENCH_MEMORY_STRETCH", "120"))
PRESET = "worldcup"


def _run_child(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(_CHILD), *args],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"_mem_child {args} failed rc={proc.returncode}:\n{proc.stderr}"
        )
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    payload["wall_s"] = time.perf_counter() - t0
    return payload


def _ratio(batch_net: int, stream_net: int) -> float | None:
    return round(batch_net / stream_net, 3) if stream_net > 0 else None


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    """Generate the inputs once, then measure each pipeline in
    isolation: mining (batch/stream over a raw log) and end-to-end
    replay (batch/stream ``run_policy`` over a saved workload)."""
    tmp = tmp_path_factory.mktemp("membench")
    log_path = tmp / "training.log"
    wl_dir = tmp / "workload"
    gen = _run_child("genlog", str(log_path), PRESET, str(SCALE),
                     str(STRETCH))
    _run_child("genwl", str(wl_dir), PRESET, str(REPLAY_SCALE))
    base = _run_child("base")
    batch = _run_child("batch", str(log_path))
    stream = _run_child("stream", str(log_path))
    replay_batch = _run_child("replay", str(wl_dir), "batch")
    replay_stream = _run_child("replay", str(wl_dir), "stream")

    base_kb = base["peak_rss_kb"]
    batch_net = batch["peak_rss_kb"] - base_kb
    stream_net = stream["peak_rss_kb"] - base_kb
    rbatch_net = replay_batch["peak_rss_kb"] - base_kb
    rstream_net = replay_stream["peak_rss_kb"] - base_kb
    return {
        "schema": BENCH_MEMORY_SCHEMA,
        "workload": PRESET,
        "scale": SCALE,
        "replay_scale": REPLAY_SCALE,
        "stretch": STRETCH,
        "log_duration_s": gen["duration_s"],
        "records": gen["records"],
        "log_bytes": log_path.stat().st_size,
        "base_rss_kb": base_kb,
        "batch": {
            "peak_rss_kb": batch["peak_rss_kb"],
            "net_rss_kb": batch_net,
            "num_sessions": batch["num_sessions"],
            "fingerprint": batch["fingerprint"],
            "wall_s": round(batch["wall_s"], 3),
        },
        "stream": {
            "peak_rss_kb": stream["peak_rss_kb"],
            "net_rss_kb": stream_net,
            "num_sessions": stream["num_sessions"],
            "fingerprint": stream["fingerprint"],
            "wall_s": round(stream["wall_s"], 3),
        },
        "batch_over_stream_net": _ratio(batch_net, stream_net),
        "replay": {
            "requests": replay_batch["requests"],
            "batch": {
                "peak_rss_kb": replay_batch["peak_rss_kb"],
                "net_rss_kb": rbatch_net,
                "report": replay_batch["report"],
                "wall_s": round(replay_batch["wall_s"], 3),
            },
            "stream": {
                "peak_rss_kb": replay_stream["peak_rss_kb"],
                "net_rss_kb": rstream_net,
                "report": replay_stream["report"],
                "wall_s": round(replay_stream["wall_s"], 3),
            },
            "batch_over_stream_net": _ratio(rbatch_net, rstream_net),
        },
    }


def test_pipelines_mine_identical_models(measurements):
    """Folding off disk mines what folding a list does, at bench scale."""
    assert measurements["batch"]["fingerprint"] == \
        measurements["stream"]["fingerprint"]
    assert measurements["batch"]["num_sessions"] == \
        measurements["stream"]["num_sessions"] > 0


def test_replay_reports_identical(measurements):
    """Streamed run_policy is field-for-field identical to materialized
    — proven across process boundaries, not just in one interpreter."""
    replay = measurements["replay"]
    a, b = replay["batch"]["report"], replay["stream"]["report"]
    differing = [k for k in a if a[k] != b[k]]
    assert not differing, (
        f"streamed replay diverges from materialized on {differing}"
    )
    assert a["all_completed"] and replay["requests"] > 0


def test_both_pipelines_have_positive_footprint(measurements):
    # A non-positive net says the base child out-weighed a real pipeline —
    # the measurement itself is broken, don't let the ratio hide it.
    assert measurements["batch"]["net_rss_kb"] > 0
    assert measurements["stream"]["net_rss_kb"] > 0
    assert measurements["replay"]["batch"]["net_rss_kb"] > 0
    assert measurements["replay"]["stream"]["net_rss_kb"] > 0


def test_stream_peak_rss_ratio(measurements):
    """The acceptance floor: batch peaks >= MIN_RATIO x above streamed."""
    ratio = measurements["batch_over_stream_net"]
    assert ratio is not None and ratio >= MIN_RATIO, (
        f"streamed mining saves only {ratio}x net peak RSS "
        f"(batch {measurements['batch']['net_rss_kb']} KB vs stream "
        f"{measurements['stream']['net_rss_kb']} KB; need {MIN_RATIO}x)"
    )


def test_replay_peak_rss_ratio(measurements):
    """The end-to-end floor: a materialized replay peaks >= MIN_RATIO x
    above the streamed one."""
    replay = measurements["replay"]
    ratio = replay["batch_over_stream_net"]
    assert ratio is not None and ratio >= MIN_RATIO, (
        f"streamed replay saves only {ratio}x net peak RSS "
        f"(batch {replay['batch']['net_rss_kb']} KB vs stream "
        f"{replay['stream']['net_rss_kb']} KB; need {MIN_RATIO}x)"
    )


def test_memory_gate_and_artifact(measurements):
    """Gate streamed net RSS against the committed baseline, then write
    the fresh artifact."""
    committed = None
    if BASELINE.exists():
        try:
            committed = json.loads(BASELINE.read_text())
        except ValueError:
            committed = None
    if (committed is not None
            and committed.get("schema") == BENCH_MEMORY_SCHEMA
            and committed.get("scale") == SCALE):
        baseline_kb = committed["stream"]["net_rss_kb"]
        current_kb = measurements["stream"]["net_rss_kb"]
        ceiling = baseline_kb * (1.0 + TOLERANCE)
        if GATE:
            assert current_kb <= ceiling, (
                f"memory regression: streamed net peak RSS {current_kb} KB "
                f"above {ceiling:.0f} KB ({TOLERANCE:.0%} over committed "
                f"baseline {baseline_kb} KB)"
            )
    if (committed is not None
            and committed.get("schema") == BENCH_MEMORY_SCHEMA
            and committed.get("replay_scale") == REPLAY_SCALE):
        baseline_kb = committed["replay"]["stream"]["net_rss_kb"]
        current_kb = measurements["replay"]["stream"]["net_rss_kb"]
        ceiling = baseline_kb * (1.0 + TOLERANCE)
        if GATE:
            assert current_kb <= ceiling, (
                f"memory regression: streamed replay net peak RSS "
                f"{current_kb} KB above {ceiling:.0f} KB ({TOLERANCE:.0%} "
                f"over committed baseline {baseline_kb} KB)"
            )
    ARTIFACT.write_text(json.dumps(measurements, indent=2) + "\n")
    print(f"\n[wrote {ARTIFACT}]")
    print(f"  log: {measurements['records']} records, "
          f"{measurements['log_bytes'] / (1 << 20):.1f} MB")
    for mode in ("batch", "stream"):
        m = measurements[mode]
        print(f"  {mode:>6s}: peak {m['peak_rss_kb'] / 1024:.1f} MB "
              f"(net {m['net_rss_kb'] / 1024:.1f} MB) in {m['wall_s']:.1f} s")
    print(f"  batch/stream net ratio: "
          f"{measurements['batch_over_stream_net']}x")
    replay = measurements["replay"]
    print(f"  replay: {replay['requests']} requests")
    for mode in ("batch", "stream"):
        m = replay[mode]
        print(f"  replay/{mode}: peak {m['peak_rss_kb'] / 1024:.1f} MB "
              f"(net {m['net_rss_kb'] / 1024:.1f} MB) in {m['wall_s']:.1f} s")
    print(f"  replay batch/stream net ratio: "
          f"{replay['batch_over_stream_net']}x")

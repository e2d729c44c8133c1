"""Subprocess worker for the peak-RSS memory benchmark.

Each invocation runs ONE pipeline in a fresh interpreter and prints a
single JSON line with its own ``ru_maxrss`` — peak resident set size is
a per-process high-water mark, so the materialized and streamed runs
must not share a process or the larger one poisons the other's reading.

Both mining modes run the same one-pass fold (``mine_models``); they
differ only in its input: ``batch`` reads the whole log into a list
first, ``stream`` folds a ``CLFSource`` straight off disk.

Modes::

    _mem_child.py genlog <log-path> <preset> <scale> <stretch>
    _mem_child.py base                                 # import-only floor
    _mem_child.py batch  <log-path>                    # fold a record list
    _mem_child.py stream <log-path>                    # fold off disk
    _mem_child.py genwl  <dir> <preset> <scale>        # save a workload dir
    _mem_child.py replay <dir> batch|stream            # end-to-end run_policy

The ``replay`` modes measure the full evaluation path: load a saved
workload (materialized lists vs lazy ``CLFSource`` +
``SidecarRequestSource``) and drive ``run_policy`` over it.  The policy
is ``lard`` — it never mines, so the measurement isolates the trace and
training-log footprint rather than re-measuring the mining modes
above.  Each replay child also prints its simulation report so the
parent can assert batch and streamed replays are field-for-field
identical *across processes*.

``stretch`` multiplies the log's time axis.  The synthetic presets
compress a huge request count into minutes of simulated time — shorter
than the 30-minute session timeout, so *no* session would ever retire
and the streamed fold would hold the whole log open.  Real logs of this
size span hours to days; stretching restores that timescale
(intra-session gaps stay far below the timeout) without touching the
request structure.

``base`` imports exactly what the measured modes import, so
``mode_rss - base_rss`` isolates the pipeline's own footprint from the
interpreter + import cost.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

# The same imports in every mode, so the `base` floor is honest.
from repro.core.system import mine_models, run_policy
from repro.logs.clf import CLFSource, write_log
from repro.logs.records import Trace
from repro.logs.site import Website
from repro.logs.store import load_workload, save_workload
from repro.logs.workloads import Workload, make_workload, training_log_records
from repro.mining.fold import models_fingerprint
from repro.sim.differential import report_fields


def _peak_rss_kb() -> int:
    # Linux reports ru_maxrss in kilobytes.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _emit(payload: dict) -> None:
    payload["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(payload))


def mode_genlog(path: Path, preset: str, scale: float,
                stretch: float) -> None:
    records = training_log_records(preset, scale=scale)
    if stretch != 1.0 and records:
        t0 = records[0].timestamp
        records = [
            r.with_time(t0 + (r.timestamp - t0) * stretch) for r in records
        ]
    with path.open("w") as fp:
        n = write_log(fp, records)
    duration = records[-1].timestamp - records[0].timestamp if records else 0
    _emit({"mode": "genlog", "records": n,
           "duration_s": round(duration, 1)})


def mode_base() -> None:
    _emit({"mode": "base"})


def _mining_workload(records: list | CLFSource) -> Workload:
    """A Workload around a training log; site/trace are unused by mining."""
    return Workload(name="membench", site=Website([], name="membench"),
                    training_records=records, trace=Trace([]))


def mode_batch(path: Path) -> None:
    workload = _mining_workload(list(CLFSource(path)))
    models = mine_models(workload)
    _emit({
        "mode": "batch",
        "records": len(workload.training_records),
        "num_sessions": models.num_sessions,
        "fingerprint": models_fingerprint(models),
    })


def mode_stream(path: Path) -> None:
    source = CLFSource(path)
    models = mine_models(_mining_workload(source))
    _emit({
        "mode": "stream",
        "records": source.stats.parsed,
        "num_sessions": models.num_sessions,
        "fingerprint": models_fingerprint(models),
    })


def mode_genwl(directory: Path, preset: str, scale: float) -> None:
    workload = make_workload(preset, scale=scale)
    save_workload(workload, directory)
    _emit({"mode": "genwl", "requests": len(workload.trace),
           "records": len(workload.training_records)})


def mode_replay(directory: Path, variant: str) -> None:
    if variant not in ("batch", "stream"):
        raise SystemExit(f"unknown replay variant {variant!r}")
    workload = load_workload(directory, stream=(variant == "stream"))
    result = run_policy(workload, "lard")
    _emit({
        "mode": f"replay-{variant}",
        "requests": len(workload.trace),
        "report": report_fields(result),
    })


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "genlog":
        mode_genlog(Path(argv[1]), argv[2], float(argv[3]), float(argv[4]))
    elif mode == "base":
        mode_base()
    elif mode == "batch":
        mode_batch(Path(argv[1]))
    elif mode == "stream":
        mode_stream(Path(argv[1]))
    elif mode == "genwl":
        mode_genwl(Path(argv[1]), argv[2], float(argv[3]))
    elif mode == "replay":
        mode_replay(Path(argv[1]), argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

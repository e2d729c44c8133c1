"""Committed report oracle: the reference every refactor is checked against.

``tests/report_oracle.json`` holds, for the three workload presets at
``QUICK`` scale:

* the full :class:`~repro.sim.stats.SimulationReport` fields of every
  policy in :data:`~repro.core.system.POLICY_NAMES` (stored as JSON
  values, not hashes, so a mismatch names the field);
* the :func:`~repro.mining.fold.models_fingerprint` of the mined models
  for both predictor kinds;
* the Python and numpy versions the file was made with.

Each run uses the differential battery's parameters: the scale's
backend count and cache fraction, ``cache_fraction=None`` and the
scale's warm-up fraction and window.

Commands (from the repository root)::

    PYTHONPATH=src python -m tests.report_oracle           # check all
    PYTHONPATH=src python -m tests.report_oracle --write   # rewrite

The check runs every report and fingerprint in two worker processes and
exits 1 on any mismatch.  Tier-1 (``tests/test_report_oracle.py``)
checks the fingerprints plus ``lard`` and ``prord`` on ``synthetic``.

A change that means to alter a report rewrites the file in the same
commit and names each changed field.  If the check fails on an
unchanged tree, the environment differs from the recorded one (the
failure prints both): report that, do not rewrite the file.
"""

from __future__ import annotations

import json
import multiprocessing
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy

from repro.core.system import POLICY_NAMES, mine_models, run_policy
from repro.experiments.common import QUICK, loaded_workload
from repro.logs.workloads import Workload
from repro.mining.fold import models_fingerprint
from repro.sim.differential import _base_params, report_fields

ORACLE_FILE = Path(__file__).with_name("report_oracle.json")
SCHEMA = "prord-report-oracle/v1"
PRESETS = ("synthetic", "cs-department", "worldcup")
PREDICTOR_KINDS = ("depgraph", "ppm")
WORKERS = 2


def environment() -> dict[str, str]:
    return {"python": platform.python_version(),
            "numpy": numpy.__version__}


def workload(preset: str) -> Workload:
    return loaded_workload(preset, QUICK)


def report(wl: Workload, policy: str) -> dict:
    """One policy's report fields as JSON values (tuples become lists)."""
    result = run_policy(
        wl, policy, _base_params(wl, QUICK, None),
        cache_fraction=None,
        warmup_fraction=QUICK.warmup_fraction,
        window_s=QUICK.duration_s,
    )
    return json.loads(json.dumps(report_fields(result)))


def fingerprint(wl: Workload, kind: str) -> str:
    return models_fingerprint(
        mine_models(wl, _base_params(wl, QUICK, None), predictor_kind=kind)
    )


def load() -> dict:
    return json.loads(ORACLE_FILE.read_text())


def report_mismatches(preset: str, policy: str, expected: dict,
                      actual: dict) -> list[str]:
    """One line per differing field, naming preset, policy and field."""
    return [
        f"{preset}/{policy}: {name}: oracle {expected.get(name)!r} "
        f"!= now {actual.get(name)!r}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]


def fingerprint_mismatch(preset: str, kind: str, expected: str,
                         actual: str) -> list[str]:
    if expected == actual:
        return []
    return [f"{preset}/{kind}: models fingerprint oracle {expected[:16]} "
            f"!= now {actual[:16]}"]


def environment_note(oracle: dict) -> str:
    """Names any difference between the recorded and current versions."""
    recorded, current = oracle["environment"], environment()
    diffs = [f"{k} {recorded.get(k)} recorded, {v} here"
             for k, v in current.items() if recorded.get(k) != v]
    return ("environment differs: " + "; ".join(diffs) if diffs
            else "environment matches the recorded one")


def _preset_entry(preset: str) -> tuple[dict, dict]:
    wl = workload(preset)
    return ({kind: fingerprint(wl, kind) for kind in PREDICTOR_KINDS},
            {policy: report(wl, policy) for policy in POLICY_NAMES})


def compute() -> dict:
    """Every report and fingerprint, one preset per worker process."""
    with ProcessPoolExecutor(
        max_workers=WORKERS, mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        entries = list(pool.map(_preset_entry, PRESETS))
    return {
        "schema": SCHEMA,
        "scale": QUICK.name,
        "environment": environment(),
        "fingerprints": {p: fps for p, (fps, _) in zip(PRESETS, entries)},
        "reports": {p: reps for p, (_, reps) in zip(PRESETS, entries)},
    }


def check(oracle: dict, now: dict) -> list[str]:
    problems: list[str] = []
    for preset in PRESETS:
        for kind in PREDICTOR_KINDS:
            problems += fingerprint_mismatch(
                preset, kind, oracle["fingerprints"][preset][kind],
                now["fingerprints"][preset][kind])
        for policy in POLICY_NAMES:
            problems += report_mismatches(
                preset, policy, oracle["reports"][preset][policy],
                now["reports"][preset][policy])
    return problems


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        raise SystemExit("usage: python -m tests.report_oracle [--write]")
    now = compute()
    if argv:
        ORACLE_FILE.write_text(json.dumps(now, indent=1, sort_keys=True)
                               + "\n")
        print(f"wrote {ORACLE_FILE}")
        return 0
    oracle = load()
    problems = check(oracle, now)
    n_reports = len(PRESETS) * len(POLICY_NAMES)
    n_fps = len(PRESETS) * len(PREDICTOR_KINDS)
    if problems:
        print(f"report oracle: {len(problems)} mismatch(es)")
        for line in problems:
            print(f"  {line}")
        print(f"  {environment_note(oracle)}")
        return 1
    print(f"report oracle: {n_reports} reports and {n_fps} fingerprints "
          "match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

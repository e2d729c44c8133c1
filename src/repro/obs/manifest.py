"""Run manifests: provenance records for experiment artifacts.

A figure in a paper (or a ``repro timeline`` artifact) is only as
trustworthy as the answer to "what exactly produced this?".  A
:class:`RunManifest` captures, for one grid execution:

* the **configuration** — simulation parameters, experiment scale, and
  every cell's (workload, policy, knobs) tuple;
* the **workload identity** — request/file counts, site bytes, and a
  content fingerprint of the evaluation trace, so two manifests agree
  iff the simulators saw the same requests;
* the **environment** — Python/NumPy/repro versions and platform;
* **telemetry summaries** — percentiles, load imbalance, per-phase
  wall-clock — when the runs were telemetered.

Determinism contract: :meth:`RunManifest.fingerprint` hashes only the
reproducible sections (config, cells, workloads, deterministic result
fields).  Volatile sections — creation time, environment, wall-clock
timings — are stored but excluded, so the same seed yields the same
fingerprint on every machine, which the regression tests assert.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.config import SimulationParams
    from ..experiments.common import ExperimentScale
    from ..experiments.runner import CellResult
    from ..logs.workloads import Workload

__all__ = ["RunManifest", "workload_identity", "build_manifest"]

MANIFEST_SCHEMA = "prord-run-manifest/v1"

#: Top-level sections excluded from the determinism fingerprint.
VOLATILE_SECTIONS = ("created_at", "environment", "wall_clock")


def workload_identity(workload: "Workload") -> dict:
    """Content identity of a workload (deterministic under fixed seed)."""
    digest = hashlib.sha256()
    for r in workload.trace:
        digest.update(
            f"{r.arrival:.9f}|{r.conn_id}|{r.path}|{r.size}\n".encode()
        )
    return {
        "name": workload.name,
        "requests": workload.num_requests,
        "files": workload.num_files,
        "site_bytes": workload.site_bytes,
        "training_records": len(workload.training_records),
        "trace_sha256": digest.hexdigest(),
    }


def _environment() -> dict:
    import numpy
    from .. import __version__
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": __version__,
        "platform": platform.platform(),
    }


@dataclass(frozen=True, slots=True)
class RunManifest:
    """One grid execution's provenance record (JSON-ready payload)."""

    payload: dict

    def fingerprint(self) -> str:
        """SHA-256 over the reproducible sections only."""
        stable = {k: v for k, v in self.payload.items()
                  if k not in VOLATILE_SECTIONS}
        canonical = json.dumps(stable, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_json(self) -> str:
        out = dict(self.payload)
        out["fingerprint"] = self.fingerprint()
        return json.dumps(out, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        payload = json.loads(text)
        payload.pop("fingerprint", None)
        return cls(payload=payload)


def build_manifest(
    results: Sequence["CellResult"],
    scale: "ExperimentScale",
    *,
    params: "SimulationParams | None" = None,
    workloads: Mapping[str, "Workload"] | None = None,
    label: str | None = None,
    created_at: str | None = None,
) -> RunManifest:
    """Assemble a manifest for one executed grid.

    ``workloads`` (name → built workload) enables the content-identity
    section; without it only names are recorded.  ``created_at`` is an
    opaque caller-supplied stamp (the CLI passes an ISO timestamp) kept
    out of the fingerprint.
    """
    cells = []
    for r in results:
        result = r.result
        cell = {
            "workload": r.cell.workload,
            "policy": r.cell.policy,
            "n_backends": result.n_backends,
            "cache_fraction": r.cache_fraction,
            "seed_offset": r.cell.seed_offset,
            "completed": result.report.completed,
            "throughput_rps": result.report.throughput_rps,
            "hit_rate": result.report.hit_rate,
            "load_imbalance": result.report.load_imbalance,
            "audit_clean": (result.audit.clean
                            if result.audit is not None else None),
        }
        telemetry = getattr(result, "telemetry", None)
        if telemetry is not None:
            cell["telemetry"] = {
                "completions": telemetry.completions,
                "events_processed": telemetry.events_processed,
                "windows": len(telemetry.timeline),
                "coalesce_rounds": telemetry.timeline.coalesce_rounds,
                "p50_response_s": telemetry.p50_response_s,
                "p95_response_s": telemetry.p95_response_s,
                "p99_response_s": telemetry.p99_response_s,
                "phases": {
                    name: {"calls": t.calls, "units": t.units}
                    for name, t in telemetry.phases
                },
            }
        cells.append(cell)
    payload = {
        "schema": MANIFEST_SCHEMA,
        "label": label,
        "scale": asdict(scale) | {
            "session_rates": dict(scale.session_rates)},
        "params": asdict(params) if params is not None else None,
        "cells": cells,
        "workloads": ({name: workload_identity(w)
                       for name, w in sorted(workloads.items())}
                      if workloads is not None else None),
        "created_at": created_at,
        "environment": _environment(),
        "wall_clock": {
            "total_s": round(sum(r.wall_clock_s for r in results), 6),
            "cells_s": [round(r.wall_clock_s, 6) for r in results],
            "phases_s": _phase_seconds(results),
        },
    }
    return RunManifest(payload=payload)


def _phase_seconds(results: Sequence["CellResult"]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for r in results:
        telemetry = getattr(r.result, "telemetry", None)
        if telemetry is None:
            continue
        for name, timing in telemetry.phases:
            totals[name] = totals.get(name, 0.0) + timing.wall_s
    return {name: round(s, 6) for name, s in sorted(totals.items())}

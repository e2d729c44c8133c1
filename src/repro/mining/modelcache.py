"""Persistent disk cache for offline mining artifacts.

Mining a training log is a pure function of its records and a handful of
config knobs (``depgraph_order``, ``predictor_kind``), yet grid runs and
repeated CLI invocations re-mine the same workload over and over — the
redundant model-build cost the offline/online split of predictive
prefetching frameworks exists to avoid.  :class:`ModelCache` stores the
pickled :class:`~repro.core.system.MinedModels` under a content key so a
second run on an unchanged workload skips the ``mine.*`` phases
entirely.

Correctness over convenience: the key is a SHA-256 over **every field of
every training record**, the evaluation-trace fingerprint (the same
digest the run manifest records), and the mining config.  Change one
byte of the log, the trace, or a mining knob and the key changes, so a
stale hit is impossible short of a hash collision.  Cache files are
written atomically (tmp + rename) and a corrupt or unreadable entry
falls back to re-mining — the cache can make a run faster, never wrong.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.config import SimulationParams
    from ..core.system import MinedModels
    from ..logs.workloads import Workload
    from ..obs.profiler import PhaseProfiler

__all__ = ["ModelCache", "mining_fingerprint", "cached_mine_models"]

#: Bump when the pickle payload's meaning changes (new MinedModels
#: fields, different mining semantics) to invalidate old entries.
#: v2: DependencyGraph._totals.  v3: no categorizer field; MinedModels
#: pickles as a list of slot values, so a v2 entry without a categorizer
#: would load with every later field shifted onto the wrong one, silently.
CACHE_SCHEMA = "prord-mined-models/v3"


def mining_fingerprint(
    workload: "Workload",
    params: "SimulationParams",
    predictor_kind: str = "depgraph",
) -> str:
    """Content key: hash of everything :func:`mine_models` consumes.

    Covers all training-record fields (the mining input), the evaluation
    trace (same per-request digest as
    :func:`~repro.obs.manifest.workload_identity`, so the key agrees
    with the manifest's notion of workload identity), and the mining
    config knobs.  Simulation-only parameters (cache sizes, service
    times) deliberately do not contribute — they cannot change what
    mining produces.
    """
    digest = hashlib.sha256()
    digest.update(f"{CACHE_SCHEMA}\n".encode())
    digest.update(
        f"order={params.depgraph_order}|kind={predictor_kind}\n".encode()
    )
    for r in workload.training_records:
        digest.update(
            f"{r.host}|{r.timestamp:.9f}|{r.method}|{r.path}|"
            f"{r.protocol}|{r.status}|{r.size}|{r.referer}|{r.agent}\n"
            .encode()
        )
    digest.update(b"--trace--\n")
    for r in workload.trace:
        digest.update(
            f"{r.arrival:.9f}|{r.conn_id}|{r.path}|{r.size}\n".encode()
        )
    return digest.hexdigest()


class ModelCache:
    """A directory of pickled :class:`MinedModels`, one file per key.

    The cache is safe for concurrent writers: entries are immutable
    once written (content-keyed), and writes go through a temp file in
    the same directory followed by :func:`os.replace`, so readers never
    observe a partial pickle.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: (hits, misses, evictions-by-corruption) since construction
        self.hits = 0
        self.misses = 0
        self.rejected = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> "MinedModels | None":
        """The cached models for ``key``, or None (miss / corrupt)."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated write from a crashed process, a pickle from an
            # incompatible code version, plain corruption: treat all as
            # a miss and drop the bad entry so it is rebuilt.
            self.rejected += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
            self.rejected += 1
            return None
        self.hits += 1
        return payload["models"]

    def put(self, key: str, models: "MinedModels") -> None:
        """Atomically persist ``models`` under ``key``."""
        path = self._path(key)
        payload = {"schema": CACHE_SCHEMA, "key": key, "models": models}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def cached_mine_models(
    workload: "Workload",
    params: "SimulationParams | None" = None,
    *,
    cache: ModelCache | str | Path | None = None,
    predictor_kind: str = "depgraph",
    profiler: "PhaseProfiler | None" = None,
) -> "MinedModels":
    """:func:`~repro.core.system.mine_models` behind a disk cache.

    On a hit the ``mine.*`` profiler phases never run — a
    ``modelcache.hit`` phase is recorded instead, so a profile showing
    zero mining wall-clock is the observable proof the cache worked.
    With ``cache=None`` this is exactly ``mine_models``.
    """
    from ..core.config import SimulationParams
    from ..core.system import mine_models

    params = params or SimulationParams()
    if cache is None:
        return mine_models(workload, params,
                           predictor_kind=predictor_kind, profiler=profiler)
    if not isinstance(cache, ModelCache):
        cache = ModelCache(cache)
    key = mining_fingerprint(workload, params, predictor_kind)
    models = cache.get(key)
    if models is not None:
        if profiler is not None:
            with profiler.phase("modelcache.hit"):
                pass
        return models
    models = mine_models(workload, params,
                         predictor_kind=predictor_kind, profiler=profiler)
    cache.put(key, models)
    return models

"""The offline miner: records in, :class:`MinedModels` out, in one pass.

PRORD's offline stage (§3) is one pass over the server's web log, and
so is this module; :func:`repro.core.system.mine_models` is a thin
driver around it:

* records stream through a :class:`~repro.logs.sessions.StreamSessionizer`
  that retires a session the moment it goes idle past the timeout;
* every retired session is immediately folded into the incremental
  miners — :meth:`DependencyGraph.add_sequence` and
  :class:`~repro.mining.bundles.BundleAccumulator` — and dropped;
* popularity counts fold per record (:meth:`RankTable.from_records`
  counts records, not sessions, so the fold does too).

Resident memory is the open-session window plus the mined models
themselves, never the trace.  Every miner's final state is a set of
counters whose values do not depend on feed order, and the thresholds
and tie-breaks are applied once, at :meth:`StreamingModelFold.finish`.
:func:`models_fingerprint` canonicalizes a :class:`MinedModels` into a
stable digest, so models can be compared across processes; the
committed report oracle (``tests/report_oracle.json``) pins the
fingerprints of every workload preset.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import TYPE_CHECKING, Iterable

from ..logs.records import LogRecord
from ..logs.sessions import DEFAULT_SESSION_TIMEOUT, StreamSessionizer
from .bundles import BundleMiner
from .depgraph import DependencyGraph
from .popularity import RankTable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.config import SimulationParams
    from ..core.system import MinedModels

__all__ = [
    "StreamingModelFold",
    "models_fingerprint",
    "models_equal",
]


class StreamingModelFold:
    """Folds a request stream into the offline mining artifacts.

    Feed records in time order with :meth:`add_record`; call
    :meth:`finish` once to freeze the accumulated state into an
    immutable :class:`~repro.core.system.MinedModels`.
    """

    def __init__(
        self,
        params: "SimulationParams | None" = None,
        *,
        predictor_kind: str = "depgraph",
        timeout: float = DEFAULT_SESSION_TIMEOUT,
    ) -> None:
        from ..core.config import SimulationParams
        params = params or SimulationParams()
        self.predictor_kind = predictor_kind
        self._sessionizer = StreamSessionizer(timeout=timeout)
        self._graph = DependencyGraph(order=params.depgraph_order)
        if predictor_kind == "depgraph":
            self._ppm = None
        elif predictor_kind == "ppm":
            from .ppm import PPMPredictor
            self._ppm = PPMPredictor(order=params.depgraph_order)
        else:
            raise ValueError(
                f"unknown predictor_kind {predictor_kind!r}; "
                "known: depgraph, ppm"
            )
        self._bundles = BundleMiner().accumulator()
        self._popularity: Counter[str] = Counter()
        self._num_sessions = 0
        self._num_sequences = 0
        self._records_seen = 0
        self._finished = False

    # -- feeding -----------------------------------------------------------

    @property
    def records_seen(self) -> int:
        return self._records_seen

    @property
    def num_sessions(self) -> int:
        """Sessions retired so far (open sessions not yet counted)."""
        return self._num_sessions

    @property
    def open_sessions(self) -> int:
        return len(self._sessionizer)

    @property
    def peak_open_sessions(self) -> int:
        """High-water mark of the session working set (the memory bound)."""
        return self._sessionizer.peak_open

    def _fold_session(self, sess) -> None:
        self._num_sessions += 1
        seq = self._bundles.add_session(sess)
        # Same cut as page_sequences(sessions, min_length=2).
        if len(seq) >= 2:
            self._num_sequences += 1
            self._graph.add_sequence(seq)
            if self._ppm is not None:
                self._ppm.add_sequence(seq)

    def add_record(self, rec: LogRecord) -> None:
        """Fold one log record (time-ordered) into the models."""
        if self._finished:
            raise RuntimeError("fold already finished")
        self._records_seen += 1
        if rec.is_success():
            # Popularity counts records, not sessions.
            self._popularity[rec.path] += 1
        for sess in self._sessionizer.feed(rec):
            self._fold_session(sess)

    def add_records(self, records: Iterable[LogRecord]) -> None:
        for rec in records:
            self.add_record(rec)

    # -- finishing ---------------------------------------------------------

    def finish(self) -> "MinedModels":
        """Retire remaining sessions and freeze the mined artifacts."""
        from ..core.system import MinedModels
        if self._finished:
            raise RuntimeError("fold already finished")
        self._finished = True
        for sess in self._sessionizer.flush():
            self._fold_session(sess)
        graph = self._graph
        model = graph if self._ppm is None else self._ppm
        return MinedModels(
            graph=graph,
            model=model,
            bundles=self._bundles.finish(),
            rank_table=RankTable(self._popularity),
            num_sessions=self._num_sessions,
            num_sequences=self._num_sequences,
            predictor_kind=self.predictor_kind,
        )


# -- equivalence checking -----------------------------------------------------


def _hash_update(h, *parts: object) -> None:
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")


def _counts_items(counts: dict) -> list:
    """Canonical (sorted) view of a context->Counter table."""
    return sorted(
        (ctx, sorted(counter.items()))
        for ctx, counter in counts.items()
    )


def models_fingerprint(models: "MinedModels") -> str:
    """A canonical content digest of a :class:`MinedModels`.

    Two models mined from the same sessions, in any feed order, hash
    identically; any semantic difference (one count, one weight, one
    edge) changes the digest.  Dict/set iteration order is
    canonicalized away, so this is the right equality across process
    boundaries and against the committed oracle.
    """
    h = hashlib.sha256()
    _hash_update(h, "prord-mined-models-fp/v1", models.predictor_kind,
                 models.num_sessions, models.num_sequences)
    g = models.graph
    # Private-state access is deliberate: the fingerprint must cover the
    # complete mined state, not just what the query API exposes.
    _hash_update(h, "graph", g.order, g.trained_sequences,
                 sorted((p, sorted(t)) for p, t in g._links.items()),
                 _counts_items(g._counts))
    if models.model is models.graph:
        _hash_update(h, "model", "=graph")
    else:
        ppm = models.model
        _hash_update(h, "model", "ppm", ppm.order, ppm.blend,
                     ppm._trained_sequences, _counts_items(ppm._counts))
    _hash_update(h, "bundles", sorted(models.bundles.as_dict().items()))
    _hash_update(h, "ranks", sorted(models.rank_table.items()))
    return h.hexdigest()


def models_equal(a: "MinedModels", b: "MinedModels") -> bool:
    """Field-for-field equality of two mined-model artifacts."""
    return models_fingerprint(a) == models_fingerprint(b)

"""End-to-end PRORD system: mine the logs, build a policy, run the cluster.

This is the paper's full pipeline in one place:

1. **mine** the training web log in one pass — sessions → dependency
   graph, bundle table, popularity rank table (§3, §4.1);
2. **build** a distribution policy (PRORD or a baseline) and, for
   PRORD-family configurations, an Algorithm-3 replication engine seeded
   with the offline rank table;
3. **run** the evaluation trace through the simulated cluster.

``run_policy`` is the one-call entry the examples and the experiment
harness use.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace as dc_replace
from operator import attrgetter
from typing import TYPE_CHECKING

from ..sim.cluster import ClusterSimulator, SimulationResult
from .config import SimulationParams

# The miners, the policies and the auditor are imported where they are
# used, so a run loads only the stages it runs (DESIGN.md §10, "Import
# layering"): a LARD replay never loads the miners.
if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..logs.workloads import Workload
    from ..mining.bundles import BundleTable
    from ..mining.depgraph import DependencyGraph
    from ..mining.modelcache import ModelCache
    from ..mining.popularity import RankTable
    from ..mining.ppm import PPMPredictor
    from ..obs.profiler import PhaseProfiler
    from ..policies.base import Policy
    from ..policies.prord import PRORDComponents
    from ..policies.replication import ReplicationEngine

__all__ = [
    "MinedModels",
    "MiningResult",
    "mine_models",
    "mine_components",
    "POLICY_NAMES",
    "MINING_POLICY_NAMES",
    "build_policy",
    "cache_bytes_for_fraction",
    "run_policy",
    "PRORDSystem",
]


@dataclass(slots=True)
class MiningResult:
    """Per-run mining state handed to one policy run.

    The predictor carries per-connection runtime state (access-sequence
    windows, online hit counters) and — with online updates on —
    mutates its navigation model, so a ``MiningResult`` must never be
    shared between runs.  Build one per run from a shared
    :class:`MinedModels` via :meth:`MinedModels.runtime`.
    """

    components: PRORDComponents
    graph: DependencyGraph
    rank_table: RankTable
    num_sessions: int
    num_sequences: int


@dataclass(frozen=True, slots=True)
class MinedModels:
    """Immutable artifacts of one offline mining pass.

    Everything here is a pure function of the training log and the
    mining parameters (``depgraph_order``, ``predictor_kind``), carries
    no per-run state, and pickles cleanly — the experiment runner mines
    once per (workload, params) and ships the result to worker
    processes, where :meth:`runtime` stamps out cheap per-run state.

    ``model`` is the navigation model the predictor consults (the
    dependency graph itself, or a PPM comparator); ``graph`` is always
    the paper's n-order dependency graph.
    """

    graph: DependencyGraph
    model: DependencyGraph | PPMPredictor
    bundles: BundleTable
    rank_table: RankTable
    num_sessions: int
    num_sequences: int
    predictor_kind: str = "depgraph"

    def runtime(
        self,
        params: SimulationParams | None = None,
        *,
        online_update: bool = True,
    ) -> MiningResult:
        """Stamp out per-run state over these shared models.

        The navigation model is copied when online updates are on (the
        predictor folds observed transitions back into it), so the
        mined template stays pristine and every run starts from the
        same offline state — runs are independent and order-free, which
        is what makes parallel execution bit-identical to serial.
        """
        from ..mining.prefetch import PrefetchPredictor
        from ..policies.prord import PRORDComponents

        params = params or SimulationParams()
        model = self.model.copy() if online_update else self.model
        graph = model if self.model is self.graph else self.graph
        predictor = PrefetchPredictor(
            model,
            threshold=params.prefetch_threshold,
            online_update=online_update,
            top_k=params.prefetch_top_k,
        )
        return MiningResult(
            components=PRORDComponents(
                bundles=self.bundles,
                predictor=predictor,
            ),
            graph=graph,
            rank_table=self.rank_table,
            num_sessions=self.num_sessions,
            num_sequences=self.num_sequences,
        )


def mine_models(
    workload: Workload,
    params: SimulationParams | None = None,
    *,
    predictor_kind: str = "depgraph",
    profiler: "PhaseProfiler | None" = None,
) -> MinedModels:
    """Run the paper's offline web-log mining over the training log.

    One pass of :class:`~repro.mining.fold.StreamingModelFold` over
    ``workload.training_records``.  An in-memory record list is first
    sorted stably by timestamp — a linear pass on a log already in time
    order, as every preset's is — so an out-of-order list mines the
    sessions a per-client sort would give.  A lazy
    :class:`~repro.logs.clf.CLFSource` (``load_workload(...,
    stream=True)``) folds straight off disk in constant memory and must
    be in time order; the fold raises ``ValueError`` otherwise.

    ``predictor_kind`` selects the navigation model behind the prefetch
    predictor: ``"depgraph"`` (the paper's n-order dependency graph) or
    ``"ppm"`` (the related-work Prediction-by-Partial-Match comparator,
    which shares the candidates/predict API).

    ``profiler`` (optional) records the pass under ``mine.stream``
    (units = records) and the freeze under ``mine.stream.finish``.
    """
    from ..logs.clf import CLFSource
    from ..mining.fold import StreamingModelFold

    def timed(name: str):
        return profiler.phase(name) if profiler is not None else nullcontext()

    fold = StreamingModelFold(params, predictor_kind=predictor_kind)
    records = workload.training_records
    with timed("mine.stream"):
        if not isinstance(records, CLFSource):
            records = sorted(records, key=attrgetter("timestamp"))
        fold.add_records(records)
    with timed("mine.stream.finish"):
        models = fold.finish()
    if profiler is not None:
        profiler.add_units("mine.stream", fold.records_seen)
    return models


def mine_components(
    workload: Workload,
    params: SimulationParams | None = None,
    *,
    online_update: bool = True,
    predictor_kind: str = "depgraph",
    profiler: "PhaseProfiler | None" = None,
) -> MiningResult:
    """Mine the training log and return ready-to-run per-run state.

    One-shot convenience over :func:`mine_models` +
    :meth:`MinedModels.runtime`; callers running many policies over the
    same workload should mine once with :func:`mine_models` and stamp
    out per-run state instead of calling this repeatedly.
    """
    models = mine_models(workload, params, predictor_kind=predictor_kind,
                         profiler=profiler)
    return models.runtime(params, online_update=online_update)


#: Policy configurations known to :func:`build_policy` — the paper's four
#: comparison points, Ext-LARD's forwarding variant and the ablation
#: variants of Fig. 9.
POLICY_NAMES = (
    "wrr",
    "lard",
    "ext-lard-phttp",
    "ext-lard-fwd",
    "prord",
    "lard-bundle",
    "lard-distribution",
    "lard-prefetch-nav",
)

#: Configurations that consult mined artifacts (everything else ignores
#: the ``mining`` argument).
MINING_POLICY_NAMES = frozenset((
    "prord",
    "lard-bundle",
    "lard-distribution",
    "lard-prefetch-nav",
))


def build_policy(
    name: str,
    mining: MiningResult | None = None,
    params: SimulationParams | None = None,
) -> tuple[Policy, ReplicationEngine | None]:
    """Build ``(policy, replicator)`` for a named configuration.

    PRORD-family configurations need a :class:`MiningResult`; baselines
    ignore it.  The replicator is None for configurations without
    Algorithm-3 replication.
    """
    params = params or SimulationParams()
    if name == "wrr":
        from ..policies.wrr import WRRPolicy
        return WRRPolicy(), None
    if name == "lard":
        from ..policies.lard import LARDPolicy
        return LARDPolicy(), None
    if name == "ext-lard-phttp":
        from ..policies.extlard import ExtLARDPolicy
        return ExtLARDPolicy(mode="handoff"), None
    if name == "ext-lard-fwd":
        from ..policies.extlard import ExtLARDPolicy
        return ExtLARDPolicy(mode="forwarding"), None
    from ..policies.prord import PRORDComponents, PRORDFeatures, PRORDPolicy

    def replicator() -> ReplicationEngine:
        from ..mining.popularity import PopularityTracker
        from ..policies.replication import ReplicationEngine
        prior = mining.rank_table if mining is not None else None
        return ReplicationEngine(PopularityTracker(prior, half_life=60.0))

    def components() -> PRORDComponents:
        if mining is None:
            raise ValueError(f"policy {name!r} requires a MiningResult")
        return mining.components

    if name == "prord":
        return (
            PRORDPolicy(components(), features=PRORDFeatures.all()),
            replicator(),
        )
    if name == "lard-bundle":
        feats = PRORDFeatures.none().with_(
            embedded_forwarding=True, bundle_prefetch=True
        )
        return PRORDPolicy(components(), features=feats,
                           name="lard-bundle"), None
    if name == "lard-distribution":
        return (
            PRORDPolicy(PRORDComponents.empty(),
                        features=PRORDFeatures.none(),
                        name="lard-distribution"),
            replicator(),
        )
    if name == "lard-prefetch-nav":
        feats = PRORDFeatures.none().with_(
            nav_prefetch=True, prefetch_routing=True
        )
        return PRORDPolicy(components(), features=feats,
                           name="lard-prefetch-nav"), None
    raise ValueError(f"unknown policy {name!r}; known: {POLICY_NAMES}")


def cache_bytes_for_fraction(
    workload: Workload, fraction: float, n_backends: int
) -> int:
    """Per-server cache size so the *cluster's aggregate* memory holds
    ``fraction`` of the site's bytes.

    Fig. 7 assumes "about 30% of the website's data can be accommodated
    in the backend servers' memory"; Fig. 8 sweeps this fraction.  The
    aggregate reading is the one consistent with the paper's reported
    85% LARD hit rate: LARD partitions content, so its effective cache
    is the aggregate, while WRR's backends all converge on the same hot
    subset and waste the aggregate on duplicates — which is exactly the
    WRR≪LARD gap the paper shows.
    """
    if not 0.0 < fraction <= 2.0:
        raise ValueError("fraction must be in (0, 2]")
    if n_backends < 1:
        raise ValueError("n_backends must be >= 1")
    return max(1, int(fraction * workload.site_bytes / n_backends))


def run_policy(
    workload: Workload,
    policy_name: str,
    params: SimulationParams | None = None,
    *,
    mining: MiningResult | None = None,
    cache_fraction: float | None = 0.3,
    warmup_fraction: float = 0.1,
    window_s: float | None = None,
    audit: bool = False,
    telemetry: bool = False,
    model_cache: "ModelCache | str | None" = None,
) -> SimulationResult:
    """Mine (if needed), build, and run one policy over a workload.

    ``window_s`` bounds the throughput measurement window — pass the
    sustained-load duration when the workload was generated with
    ``duration_s`` so the drain tail does not inflate throughput.

    ``audit=True`` attaches a :class:`~repro.sim.audit.SimulationAuditor`
    (strict mode): structural invariants are checked throughout the run,
    the result carries an :class:`~repro.sim.audit.AuditSummary`, and
    the report is bit-identical to the unaudited run.

    ``telemetry=True`` attaches a :class:`~repro.obs.telemetry.Telemetry`
    recorder (timeline + latency histograms + phase profile); the result
    carries a :class:`~repro.obs.telemetry.TelemetrySummary` and — same
    contract as the auditor — the report is bit-identical either way.
    Both observers can be on at once (their hooks chain).

    ``model_cache`` (a :class:`~repro.mining.modelcache.ModelCache` or a
    directory path) serves the offline mining pass from disk when the
    workload and mining config are unchanged — the ``mine.*`` phases are
    skipped entirely on a hit.  Cached and freshly-mined runs are
    bit-identical because :class:`MinedModels` is a pure function of
    exactly the inputs the cache key hashes.

    The trace replays at its recorded arrival times; raise offered load
    by generating the workload at a higher session rate (DESIGN.md §6a,
    item 9).  The simulator's arrival pump pulls the trace a chunk at a
    time, so when ``workload.trace`` is a
    :class:`~repro.logs.replay.SidecarRequestSource` (from
    ``load_workload(..., stream=True)``) the whole replay streams and
    the trace is never materialized; the resulting
    :class:`SimulationReport` is field-for-field identical to the
    materialized run (the streamed-replay differential check proves
    it on every preset).
    """
    tel = None
    profiler = None
    if telemetry:
        from ..obs.telemetry import Telemetry
        tel = Telemetry()
        profiler = tel.profiler
    params = params or SimulationParams()
    if cache_fraction is not None:
        params = params.with_overrides(
            cache_bytes=cache_bytes_for_fraction(
                workload, cache_fraction, params.n_backends
            )
        )
    if mining is None and policy_name in MINING_POLICY_NAMES:
        from ..mining.modelcache import cached_mine_models
        models = cached_mine_models(workload, params, cache=model_cache,
                                    profiler=profiler)
        mining = models.runtime(params)
    policy, replicator = build_policy(policy_name, mining, params)
    if replicator is not None and profiler is not None:
        replicator.profiler = profiler
    auditor = None
    if audit:
        from ..sim.audit import SimulationAuditor
        auditor = SimulationAuditor()
    cluster = ClusterSimulator(
        workload.trace, policy, params,
        replicator=replicator, warmup_fraction=warmup_fraction,
        window_s=window_s, auditor=auditor, telemetry=tel,
    )
    if tel is None:
        return cluster.run()
    start = time.perf_counter()
    result = cluster.run()
    tel.profiler.record("simulate", time.perf_counter() - start,
                        units=cluster.sim.events_processed)
    return dc_replace(result, telemetry=tel.finalize())


class PRORDSystem:
    """Convenience wrapper: one workload, one parameter set, many runs.

    Mines the training log once (:class:`MinedModels`) and reuses the
    artifacts across policy runs, stamping out fresh per-run state each
    time so no predictor state leaks between runs.
    """

    def __init__(
        self,
        workload: Workload,
        params: SimulationParams | None = None,
        *,
        model_cache: "ModelCache | str | None" = None,
    ) -> None:
        self.workload = workload
        self.params = params or SimulationParams()
        self.model_cache = model_cache
        self._models: MinedModels | None = None

    @property
    def models(self) -> MinedModels:
        """The shared offline mining pass (mined lazily, once; served
        from the optional disk cache when the workload is unchanged)."""
        if self._models is None:
            from ..mining.modelcache import cached_mine_models
            self._models = cached_mine_models(
                self.workload, self.params, cache=self.model_cache
            )
        return self._models

    @property
    def mining(self) -> MiningResult:
        """Fresh per-run mining state over the shared mined models."""
        return self.models.runtime(self.params)

    def run(
        self,
        policy_name: str,
        *,
        cache_fraction: float | None = 0.3,
        warmup_fraction: float = 0.1,
        window_s: float | None = None,
        audit: bool = False,
        telemetry: bool = False,
    ) -> SimulationResult:
        mining = None
        if policy_name in MINING_POLICY_NAMES:
            mining = self.mining
        return run_policy(
            self.workload, policy_name, self.params,
            mining=mining,
            cache_fraction=cache_fraction,
            warmup_fraction=warmup_fraction,
            window_s=window_s,
            audit=audit,
            telemetry=telemetry,
        )

    def compare(
        self,
        policy_names: tuple[str, ...] = ("wrr", "lard", "ext-lard-phttp",
                                         "prord"),
        **kwargs,
    ) -> dict[str, SimulationResult]:
        """Run several policies under identical conditions."""
        return {name: self.run(name, **kwargs) for name in policy_names}

"""PRORD — the paper's PROactive Request Distribution (§4, Fig. 4).

The distributor handles each request in the Fig. 4 order:

1. read and analyse the request;
2. **embedded object?** → forward to the backend that served the parent
   page, without contacting the dispatcher (the dashed "tossing" box —
   this is what collapses the dispatch count in Fig. 6);
3. **prefetched or already distributed?** → the distributor already
   knows the holding backend from its own tables; route there without a
   dispatch;
4. otherwise → **dispatch**: consult the dispatcher's locality table and
   pick the least-loaded backend hosting the file in memory (LARD-style
   load guards apply), falling back to the least-loaded backend overall.

On every main-page request the policy also emits proactive work for the
chosen backend: the page's mined *bundle* (embedded objects fetched into
memory before the browser asks) and the dependency-graph *navigation
prefetch* of Algorithm 2.  Replication (Algorithm 3) runs as a separate
engine (:class:`~repro.policies.replication.ReplicationEngine`) attached
to the cluster.

Feature flags expose the paper's Fig. 9 ablations (LARD-bundle,
LARD-prefetch-nav, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..logs.records import Request
from ..mining.bundles import BundleTable
from ..mining.prefetch import PrefetchPredictor
from .base import Policy, PrefetchDirective, RoutingDecision

__all__ = ["PRORDFeatures", "PRORDComponents", "PRORDPolicy"]


@dataclass(frozen=True, slots=True)
class PRORDFeatures:
    """Which PRORD enhancements are active (Fig. 9 ablation knobs)."""

    embedded_forwarding: bool = True
    prefetch_routing: bool = True
    bundle_prefetch: bool = True
    nav_prefetch: bool = True
    #: Step 4 consults the dispatcher's locality table before falling
    #: back to the least-loaded backend (original LARD does not — it
    #: knows only its own assignment table).
    locality_dispatch: bool = True
    #: Dynamic requests keep their connection's backend affinity
    #: instead of being dispatched like static targets.
    dynamic_affinity: bool = True

    @classmethod
    def none(cls) -> "PRORDFeatures":
        """Every mined enhancement off — the LARD core alone.

        The two routing refinements (``locality_dispatch``,
        ``dynamic_affinity``) stay on: they belong to the distributor
        core, not to the Fig. 9 ablation knobs.
        """
        return cls(False, False, False, False)

    @classmethod
    def lard_equivalent(cls) -> "PRORDFeatures":
        """Everything off, core refinements included.

        With this config, empty components, and non-persistent
        connections, PRORD routes *identically* to classic
        :class:`~repro.policies.lard.LARDPolicy` — pure
        assignment-table dispatch.  The differential harness
        (:mod:`repro.sim.differential`) checks that equivalence
        field-for-field.
        """
        return cls(False, False, False, False,
                   locality_dispatch=False, dynamic_affinity=False)

    @classmethod
    def all(cls) -> "PRORDFeatures":
        return cls()

    def with_(self, **kwargs: bool) -> "PRORDFeatures":
        return replace(self, **kwargs)


@dataclass(slots=True)
class PRORDComponents:
    """Mined artifacts the distributor consults.

    Built offline from the web logs (see
    :func:`repro.core.system.mine_components`); all optional — a missing
    component simply disables the dependent enhancement.
    """

    bundles: BundleTable | None = None
    predictor: PrefetchPredictor | None = None

    @classmethod
    def empty(cls) -> "PRORDComponents":
        return cls()


class PRORDPolicy(Policy):
    """The proactive request distributor.

    Parameters
    ----------
    components:
        Mined artifacts (bundles, navigation predictor).
    features:
        Enhancement flags; defaults to all on.
    max_bundle_prefetch:
        Cap on embedded objects prefetched per page view.
    """

    persistent_connections = True

    def __init__(
        self,
        components: PRORDComponents | None = None,
        *,
        features: PRORDFeatures | None = None,
        max_bundle_prefetch: int = 8,
        name: str = "prord",
    ) -> None:
        super().__init__()
        if max_bundle_prefetch < 0:
            raise ValueError("max_bundle_prefetch must be >= 0")
        self.components = components or PRORDComponents.empty()
        self.features = features or PRORDFeatures.all()
        self.max_bundle_prefetch = max_bundle_prefetch
        self.name = name
        # Feature flags and components are frozen after construction;
        # hoisted to flat attributes so route() skips two attribute
        # chases per check.
        f = self.features
        self._f_embedded = f.embedded_forwarding
        self._f_prefetch_routing = f.prefetch_routing
        self._f_bundle = (f.bundle_prefetch
                          and self.components.bundles is not None)
        self._f_nav = (f.nav_prefetch
                       and self.components.predictor is not None)
        self._f_locality = f.locality_dispatch
        self._f_dynamic = f.dynamic_affinity
        self._bundles = self.components.bundles
        self._predictor = self.components.predictor
        #: connection -> backend currently holding it
        self._conn_server: dict[int, int] = {}
        #: path -> backend asked to prefetch it (distributor-local table)
        self._prefetch_loc: dict[str, int] = {}
        #: path -> backend it was last distributed to
        self._assignment: dict[str, int] = {}
        #: (page, backend) -> (bundle directives, {object: backend})
        self._bundle_memo: dict[
            tuple[str, int],
            tuple[tuple[PrefetchDirective, ...], dict[str, int]],
        ] = {}
        #: dispatcher cached at bind time (None while unbound — readers
        #: fall back to ``self.cluster.dispatcher``, preserving the
        #: unbound RuntimeError)
        self._disp = None
        # Step counters for the Fig. 4 flow (reported by benches; the
        # auditor checks they sum to the number of routed requests).
        self.routed_embedded = 0
        self.routed_prefetched = 0
        self.routed_assigned = 0
        self.routed_dispatched = 0
        self.routed_dynamic = 0

    def bind(self, cluster) -> None:
        super().bind(cluster)
        self._disp = getattr(cluster, "dispatcher", None)

    # -- routing helpers ------------------------------------------------------

    def _overloaded(self, server_id: int) -> bool:
        """LARD's imbalance test, with one refinement: moving load only
        helps when some backend is materially less loaded.  When every
        backend is equally saturated (miss-driven overload), re-homing a
        page just duplicates its disk reads elsewhere, so locality is
        kept.  (Shared with LARD — see :meth:`Policy.overloaded`.)"""
        return self.overloaded(server_id)

    def _dispatch(self, path: str) -> int:
        """Step 4: dispatcher lookup + LARD-style selection.

        The file's stable home (LARD assignment) is kept while it is not
        overloaded — a file that wanders between backends duplicates
        cache contents and destroys aggregate locality.  When the home
        is overloaded (or unknown), the dispatcher's locality table
        picks the least-loaded backend that already holds the file in
        memory, before falling back to the least-loaded backend overall.
        """
        assigned = self._assignment.get(path)
        if assigned is not None and not self._overloaded(assigned):
            return assigned
        if self._f_locality:
            holders = (self._disp or self.cluster.dispatcher).lookup(path)
            if holders:
                # least_loaded is order-independent ((load, id) keys),
                # so the holder set goes in unsorted.
                target = self.least_loaded(holders)
                if not self._overloaded(target):
                    return target
        return self.least_loaded()

    def _add_bundle(
        self, directives: list[PrefetchDirective], page: str, target: int
    ) -> None:
        """Append ``page``'s capped bundle to ``directives`` as
        prefetches on ``target``, and record where each object went.

        Both are built once per ``(page, target)``: the bundle table and
        the cap are fixed after construction and directives are frozen,
        so later page views reuse them.
        """
        key = (page, target)
        entry = self._bundle_memo.get(key)
        if entry is None:
            objs = self._bundles.objects_of(page)[:self.max_bundle_prefetch]
            entry = self._bundle_memo[key] = (
                tuple(PrefetchDirective(target, obj) for obj in objs),
                dict.fromkeys(objs, target),
            )
        directives.extend(entry[0])
        self._prefetch_loc.update(entry[1])

    def _proactive(
        self, request: Request, target: int
    ) -> tuple[PrefetchDirective, ...]:
        """Bundle + navigation prefetches for a main-page request: the
        page's bundle on ``target``, then each predicted page and its
        bundle on the predicted page's home backend."""
        directives: list[PrefetchDirective] = []
        if self._f_bundle:
            self._add_bundle(directives, request.path, target)
        if self._f_nav:
            decisions = self._predictor.observe_many(
                request.conn_id, request.path
            )
            for decision in decisions:
                # Warm each predicted page at its *home* backend (keeping
                # per-page locality intact); the connection will be
                # routed there if the prediction comes true.  A page
                # with no home yet is homed on the current backend, so
                # no handoff is needed when the user follows the link.
                nav_target = self._assignment.get(decision.page, target)
                self._assignment.setdefault(decision.page, nav_target)
                directives.append(PrefetchDirective(nav_target, decision.page))
                self._prefetch_loc[decision.page] = nav_target
                if self._f_bundle:
                    # Prefetch the predicted page's bundle along with it.
                    self._add_bundle(directives, decision.page, nav_target)
        return tuple(directives)

    # -- Policy API ---------------------------------------------------------------

    def route(self, request: Request) -> RoutingDecision:
        path = request.path
        conn_server = self._conn_server.get(request.conn_id)

        # Dynamic (generated) content has no cache locality to exploit:
        # keep the connection where it is when possible, otherwise
        # balance load — no dispatcher contact, no proactive work
        # (dynamic-content extension; the paper's future-work item).
        if request.dynamic and self._f_dynamic:
            target = conn_server if conn_server is not None else (
                self.least_loaded())
            if self._overloaded(target):
                target = self.least_loaded()
            self._conn_server[request.conn_id] = target
            self.routed_dynamic += 1
            cached = self._plain_decisions
            if cached is not None:
                return cached[target]
            return RoutingDecision(server_id=target, dispatched=False)

        # Step 2: embedded objects follow the parent page's backend.
        # (A zero cluster down-count proves the backend is up without
        # touching the server object.)
        downs = self._downs
        if (request.is_embedded
                and self._f_embedded
                and conn_server is not None
                and ((downs is not None and not downs[0])
                     or self.server_up(conn_server))):
            self.routed_embedded += 1
            self._conn_server[request.conn_id] = conn_server
            cached = self._plain_decisions
            if cached is not None:
                return cached[conn_server]
            return RoutingDecision(server_id=conn_server, dispatched=False)

        # Step 3a: prefetched object — distributor knows the holder.
        if self._f_prefetch_routing:
            loc = self._prefetch_loc.get(path)
            if (loc is not None
                    and (self._disp or self.cluster.dispatcher).holds(
                        path, loc)
                    and not self._overloaded(loc)):
                self.routed_prefetched += 1
                return self._decide(request, loc, dispatched=False)
            # Step 3b: already distributed earlier — reuse the target.
            # Residency is not required: even if the file was evicted,
            # serving it at its home backend restores locality there.
            assigned = self._assignment.get(path)
            if assigned is not None and not self._overloaded(assigned):
                self.routed_assigned += 1
                return self._decide(request, assigned, dispatched=False)

        # Step 4: full dispatch.
        target = self._dispatch(path)
        self.routed_dispatched += 1
        return self._decide(request, target, dispatched=True)

    def _decide(
        self, request: Request, target: int, *, dispatched: bool
    ) -> RoutingDecision:
        self._conn_server[request.conn_id] = target
        if not request.is_embedded:
            self._assignment[request.path] = target
            prefetches = self._proactive(request, target)
        else:
            # With forwarding off, embedded objects are ordinary LARD
            # targets: bind them so later requests reuse the backend.
            if not self._f_embedded:
                self._assignment[request.path] = target
            prefetches = ()
        if not prefetches:
            cached = (self._dispatch_decisions if dispatched
                      else self._plain_decisions)
            if cached is not None:
                return cached[target]
        return RoutingDecision(
            server_id=target, dispatched=dispatched, prefetches=prefetches
        )

    def on_connection_close(self, conn_id: int) -> None:
        self._conn_server.pop(conn_id, None)
        if self._predictor is not None:
            self._predictor.close(conn_id)

    # -- reporting ------------------------------------------------------------------

    def flow_counts(self) -> dict[str, int]:
        """How many requests took each Fig. 4 path."""
        return {
            "embedded_forwarded": self.routed_embedded,
            "prefetch_routed": self.routed_prefetched,
            "assignment_routed": self.routed_assigned,
            "dispatched": self.routed_dispatched,
            "dynamic_affinity": self.routed_dynamic,
        }

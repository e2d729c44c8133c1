"""Request-distribution policies: WRR, LARD, Ext-LARD-PHTTP, PRORD."""

from .base import ClusterView, Policy, PrefetchDirective, RoutingDecision
from .extlard import ExtLARDPolicy
from .lard import LARDPolicy
from .prord import PRORDComponents, PRORDFeatures, PRORDPolicy
from .replication import ReplicationEngine
from .wrr import WRRPolicy

__all__ = [
    "ClusterView", "Policy", "PrefetchDirective", "RoutingDecision",
    "ExtLARDPolicy",
    "LARDPolicy",
    "PRORDComponents", "PRORDFeatures", "PRORDPolicy",
    "ReplicationEngine",
    "WRRPolicy",
]

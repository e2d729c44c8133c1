"""Request-distribution policies: WRR, LARD, Ext-LARD-PHTTP, PRORD."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
    from .base import (
        ClusterView, Policy, PrefetchDirective, RoutingDecision,
    )
    from .extlard import ExtLARDPolicy
    from .lard import LARDPolicy
    from .prord import PRORDComponents, PRORDFeatures, PRORDPolicy
    from .replication import ReplicationEngine
    from .wrr import WRRPolicy

_EXPORTS = {
    "base": ("ClusterView", "Policy", "PrefetchDirective", "RoutingDecision"),
    "extlard": ("ExtLARDPolicy",),
    "lard": ("LARDPolicy",),
    "prord": ("PRORDComponents", "PRORDFeatures", "PRORDPolicy"),
    "replication": ("ReplicationEngine",),
    "wrr": ("WRRPolicy",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

"""Cluster simulator substrate: engine, servers, front end, metrics."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
    from .audit import AuditError, AuditSummary, SimulationAuditor
    from .cache import CacheEntry, LRUCache
    from .closedloop import ClosedLoopDriver, run_closed_loop
    from .cluster import ClusterSimulator, Replicator, SimulationResult
    from .differential import (
        DifferentialCheck,
        DifferentialReport,
        run_differential_suite,
    )
    from .engine import (
        PRIORITY_DEMAND, PRIORITY_PREFETCH, Resource, Simulator,
    )
    from .failures import Failure, FailureSchedule
    from .frontend import ConnectionState, Dispatcher
    from .gdsf import GDSFCache, make_cache
    from .server import BackendServer
    from .stats import CompletionRecord, MetricsCollector, SimulationReport
    from .tracing import RequestTracer, TraceEvent, events_from_jsonl

_EXPORTS = {
    "audit": ("AuditError", "AuditSummary", "SimulationAuditor"),
    "cache": ("CacheEntry", "LRUCache"),
    "closedloop": ("ClosedLoopDriver", "run_closed_loop"),
    "cluster": ("ClusterSimulator", "Replicator", "SimulationResult"),
    "differential": ("DifferentialCheck", "DifferentialReport",
                     "run_differential_suite"),
    "engine": ("PRIORITY_DEMAND", "PRIORITY_PREFETCH", "Resource",
               "Simulator"),
    "failures": ("Failure", "FailureSchedule"),
    "frontend": ("ConnectionState", "Dispatcher"),
    "gdsf": ("GDSFCache", "make_cache"),
    "server": ("BackendServer",),
    "stats": ("CompletionRecord", "MetricsCollector", "SimulationReport"),
    "tracing": ("RequestTracer", "TraceEvent", "events_from_jsonl"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

"""Cluster simulator substrate: engine, servers, front end, metrics."""

from .audit import AuditError, AuditSummary, SimulationAuditor
from .cache import CacheEntry, LRUCache
from .closedloop import ClosedLoopDriver, run_closed_loop
from .cluster import ClusterSimulator, Replicator, SimulationResult
from .differential import (
    DifferentialCheck,
    DifferentialReport,
    run_differential_suite,
)
from .engine import PRIORITY_DEMAND, PRIORITY_PREFETCH, Resource, Simulator
from .failures import Failure, FailureSchedule
from .frontend import ConnectionState, Dispatcher
from .gdsf import GDSFCache, make_cache
from .server import BackendServer
from .stats import CompletionRecord, MetricsCollector, SimulationReport
from .tracing import RequestTracer, TraceEvent, events_from_jsonl

__all__ = [
    "AuditError", "AuditSummary", "SimulationAuditor",
    "CacheEntry", "LRUCache",
    "ClosedLoopDriver", "run_closed_loop",
    "ClusterSimulator", "Replicator", "SimulationResult",
    "DifferentialCheck", "DifferentialReport", "run_differential_suite",
    "PRIORITY_DEMAND", "PRIORITY_PREFETCH", "Resource", "Simulator",
    "Failure", "FailureSchedule",
    "ConnectionState", "Dispatcher",
    "GDSFCache", "make_cache",
    "BackendServer",
    "CompletionRecord", "MetricsCollector", "SimulationReport",
    "RequestTracer", "TraceEvent", "events_from_jsonl",
]

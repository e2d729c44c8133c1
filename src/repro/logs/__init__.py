"""Web-log substrate: records, CLF parsing, sessions, sites, workloads."""

from .clf import (
    CLFParseError,
    CLFSource,
    ParseStats,
    format_line,
    iter_log,
    parse_line,
    parse_lines,
    write_log,
)
from .records import LogRecord, Request, RequestSource, Trace, TraceSummary
from .replay import SidecarRequestSource
from .sampling import ClientSampler, request_client_key
from .sessions import (
    DEFAULT_SESSION_TIMEOUT,
    Session,
    StreamSessionizer,
    iter_sessions,
    looks_dynamic,
    looks_embedded,
    page_sequences,
    sessionize,
    trace_from_records,
)
from .site import Category, EmbeddedObject, Page, SiteSpec, Website, build_site
from .store import (
    load_site,
    load_workload,
    save_site,
    save_workload,
    site_from_dict,
    site_to_dict,
)
from .synthetic import TraceGenerator, TrafficSpec
from .validate import Finding, ValidationReport, validate_records, validate_trace
from .workloads import (
    WORKLOAD_PRESETS,
    Workload,
    cs_department_workload,
    make_workload,
    synthetic_workload,
    training_log_records,
    worldcup_workload,
)

__all__ = [
    "CLFParseError", "CLFSource", "ParseStats",
    "format_line", "iter_log", "parse_line", "parse_lines", "write_log",
    "LogRecord", "Request", "Trace",
    "RequestSource", "SidecarRequestSource", "TraceSummary",
    "ClientSampler", "request_client_key",
    "DEFAULT_SESSION_TIMEOUT", "Session", "StreamSessionizer",
    "iter_sessions", "looks_dynamic", "looks_embedded",
    "page_sequences", "sessionize", "trace_from_records",
    "Category", "EmbeddedObject", "Page", "SiteSpec", "Website", "build_site",
    "load_site", "load_workload", "save_site", "save_workload",
    "site_from_dict", "site_to_dict",
    "TraceGenerator", "TrafficSpec",
    "Finding", "ValidationReport", "validate_records", "validate_trace",
    "WORKLOAD_PRESETS", "Workload", "cs_department_workload",
    "make_workload", "synthetic_workload", "training_log_records",
    "worldcup_workload",
]

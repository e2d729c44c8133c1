"""Web-log substrate: records, CLF parsing, sessions, sites, workloads."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
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
    from .records import (
        LogRecord, Request, RequestSource, Trace, TraceSummary,
    )
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
    from .site import (
        Category, EmbeddedObject, Page, SiteSpec, Website, build_site,
    )
    from .store import (
        load_site,
        load_workload,
        save_site,
        save_workload,
        site_from_dict,
        site_to_dict,
    )
    from .synthetic import TraceGenerator, TrafficSpec
    from .validate import (
        Finding, ValidationReport, validate_records, validate_trace,
    )
    from .workloads import (
        WORKLOAD_PRESETS,
        Workload,
        cs_department_workload,
        make_workload,
        synthetic_workload,
        training_log_records,
        worldcup_workload,
    )

_EXPORTS = {
    "clf": ("CLFParseError", "CLFSource", "ParseStats", "format_line",
            "iter_log", "parse_line", "parse_lines", "write_log"),
    "records": ("LogRecord", "Request", "RequestSource", "Trace",
                "TraceSummary"),
    "replay": ("SidecarRequestSource",),
    "sampling": ("ClientSampler", "request_client_key"),
    "sessions": ("DEFAULT_SESSION_TIMEOUT", "Session", "StreamSessionizer",
                 "iter_sessions", "looks_dynamic", "looks_embedded",
                 "page_sequences", "sessionize", "trace_from_records"),
    "site": ("Category", "EmbeddedObject", "Page", "SiteSpec", "Website",
             "build_site"),
    "store": ("load_site", "load_workload", "save_site", "save_workload",
              "site_from_dict", "site_to_dict"),
    "synthetic": ("TraceGenerator", "TrafficSpec"),
    "validate": ("Finding", "ValidationReport", "validate_records",
                 "validate_trace"),
    "workloads": ("WORKLOAD_PRESETS", "Workload", "cs_department_workload",
                  "make_workload", "synthetic_workload",
                  "training_log_records", "worldcup_workload"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

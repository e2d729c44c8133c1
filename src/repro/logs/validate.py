"""Sanity validation for logs and traces entering the pipeline.

Real-world Common-Log-Format files are messy: clock skew, truncated
lines, impossible sizes, sessions interleaved out of order.  The
simulator's own types enforce hard invariants (sorted arrivals,
positive sizes); this module produces *diagnostics* — a list of
findings with severities — so an operator can judge a log before
trusting simulation results built on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .records import LogRecord, RequestSource

__all__ = ["Finding", "ValidationReport", "validate_records", "validate_trace"]

SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: severity, machine-readable code, human text."""

    severity: str
    code: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """All findings for one input."""

    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        """True when nothing error-level was found."""
        return not any(f.severity == "error" for f in self.findings)

    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    def format(self) -> str:
        if not self.findings:
            return "validation: clean"
        lines = ["validation findings:"]
        for f in self.findings:
            lines.append(f"  [{f.severity:>7s}] {f.code}: {f.message}")
        return "\n".join(lines)


def validate_records(records: Sequence[LogRecord]) -> ValidationReport:
    """Diagnose a parsed log before mining/simulation."""
    findings: list[Finding] = []
    if not records:
        return ValidationReport((Finding(
            "error", "empty-log", "no records to analyse"),))

    # Time sanity.
    ts = [r.timestamp for r in records]
    backwards = sum(1 for a, b in zip(ts, ts[1:]) if b < a)
    if backwards:
        findings.append(Finding(
            "warning", "unsorted-times",
            f"{backwards} records are out of time order "
            "(sessionization sorts per client, but interleaving beyond "
            "that suggests clock skew)"))
    span = max(ts) - min(ts)
    if span == 0 and len(records) > 1:
        findings.append(Finding(
            "warning", "zero-span",
            "all records share one timestamp; offered load is undefined"))

    # Size sanity.
    zero_sizes = sum(1 for r in records if r.is_success() and r.size == 0)
    if zero_sizes:
        findings.append(Finding(
            "info", "zero-sizes",
            f"{zero_sizes} successful responses report size 0 "
            "(they will be clamped to 1 byte)"))
    huge = sum(1 for r in records if r.size > 1 << 30)
    if huge:
        findings.append(Finding(
            "warning", "huge-sizes",
            f"{huge} responses exceed 1 GiB — check the log's size field"))

    # Status mix.
    errors = sum(1 for r in records if not r.is_success())
    if errors / len(records) > 0.25:
        findings.append(Finding(
            "warning", "high-error-rate",
            f"{errors / len(records):.0%} of requests are non-2xx; "
            "mining ignores them, so little traffic remains"))

    # Method mix.
    non_get = Counter(r.method for r in records if r.method != "GET")
    if sum(non_get.values()) / len(records) > 0.5:
        findings.append(Finding(
            "warning", "non-get-heavy",
            f"majority of requests are not GET ({dict(non_get)}); "
            "the cache model only applies to reads"))

    # Client diversity.
    clients = {r.host for r in records}
    if len(clients) == 1 and len(records) > 50:
        findings.append(Finding(
            "warning", "single-client",
            "every record has the same client host — sessionization "
            "will see one giant session (a proxy log?)"))

    # Inconsistent sizes per path (dynamic content or corruption).
    sizes_by_path: dict[str, set[int]] = {}
    for r in records:
        if r.is_success() and r.size > 0:
            sizes_by_path.setdefault(r.path, set()).add(r.size)
    varying = sum(1 for s in sizes_by_path.values() if len(s) > 3)
    if varying:
        findings.append(Finding(
            "info", "varying-sizes",
            f"{varying} paths return >3 distinct sizes "
            "(dynamic content; the catalog keeps the maximum)"))

    return ValidationReport(tuple(findings))


def validate_trace(trace: RequestSource) -> ValidationReport:
    """Diagnose a simulator trace (post-sessionization), in one pass."""
    findings: list[Finding] = []
    if len(trace) == 0:
        return ValidationReport((Finding(
            "error", "empty-trace", "trace has no requests"),))

    orphans = sum(1 for r in trace if r.is_embedded and r.parent is None)
    if orphans:
        findings.append(Finding(
            "warning", "orphan-embedded",
            f"{orphans} embedded objects have no parent page "
            "(they will be dispatched instead of forwarded)"))

    giant = max(trace.summary.connection_counts.values())
    if giant > 1000:
        findings.append(Finding(
            "warning", "giant-connection",
            f"one connection carries {giant} requests — check the "
            "session timeout"))

    if trace.duration == 0 and len(trace) > 1:
        findings.append(Finding(
            "warning", "zero-duration",
            "all arrivals are simultaneous; throughput is undefined"))

    mean_size = trace.total_bytes / max(len(trace.catalog), 1)
    if mean_size < 128:
        findings.append(Finding(
            "info", "tiny-files",
            f"mean file size is {mean_size:.0f} B; transfer costs will "
            "be negligible next to per-request costs"))

    return ValidationReport(tuple(findings))

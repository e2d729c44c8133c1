"""Timeline export: one JSON line per window, read back by
:func:`windows_from_jsonl`.

Each line is self-describing (the cell's labels, the window's bounds
and counters, one record per backend), and a footer with the cell and
window counts ends the file so a truncated one is detectable.  This is
the format CI archives.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from .telemetry import TelemetrySummary
from .timeline import TimelineWindow

__all__ = [
    "timeline_jsonl",
    "windows_from_jsonl",
]


def _window_record(window: TimelineWindow, index: int,
                   labels: Mapping[str, object]) -> dict:
    return {
        **labels,
        "window": index,
        "start": window.start,
        "width": window.width,
        "events": window.events,
        "completions": window.completions,
        "dispatches": window.dispatches,
        "handoffs": window.handoffs,
        "connections": window.connections,
        "frontend_utilization": window.frontend_utilization,
        "flows": dict(window.flows),
        "servers": [
            {
                "server": i,
                "cpu_utilization": s.utilization(window.width),
                "disk_utilization": (s.disk_busy_s / window.width
                                     if window.width > 0 else 0.0),
                "queue_depth": s.queue_depth,
                "active": s.active,
                "cache_bytes": s.cache_bytes,
                "cache_hits": s.cache_hits,
                "cache_misses": s.cache_misses,
                "completions": s.completions,
            }
            for i, s in enumerate(window.servers)
        ],
    }


def timeline_jsonl(
    entries: Iterable[tuple[Mapping[str, object], TelemetrySummary]],
) -> str:
    """Render labeled summaries as JSONL with a self-describing footer.

    ``entries`` yields ``(labels, summary)`` pairs — labels (workload,
    policy, ...) are folded into every window line.  The footer records
    the cell and window counts so a truncated file is detectable.
    """
    lines: list[str] = []
    cells = 0
    windows = 0
    for labels, summary in entries:
        cells += 1
        for i, window in enumerate(summary.timeline.windows):
            windows += 1
            lines.append(json.dumps(_window_record(window, i, labels)))
    lines.append(json.dumps({
        "footer": True,
        "schema": "prord-timeline/v1",
        "cells": cells,
        "windows": windows,
    }))
    return "\n".join(lines) + "\n"


def windows_from_jsonl(text: str) -> tuple[list[dict], dict | None]:
    """Parse :func:`timeline_jsonl` output → (window dicts, footer)."""
    records: list[dict] = []
    footer: dict | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        if d.get("footer"):
            footer = d
        else:
            records.append(d)
    return records, footer

"""Terminal dashboards for run telemetry (`repro timeline`).

Renders a telemetered run as per-backend sparkline strips — CPU
utilization, queue depth, cache occupancy over time — plus cluster-wide
completion/dispatch series, the latency percentile block, and the phase
profile.  Everything is plain Unicode so it works where the experiment
report's charts do.
"""

from __future__ import annotations

from .telemetry import TelemetrySummary

__all__ = ["render_dashboard"]


def _sparkline(values) -> str:
    # Deferred import: repro.experiments.charts is dependency-free, but
    # importing it through the experiments package at module-import time
    # would create a cycle (experiments.runner imports repro.obs).
    from ..experiments.charts import sparkline
    return sparkline(values)


def render_dashboard(summary: TelemetrySummary, *,
                     title: str = "run") -> str:
    """Multi-strip ASCII dashboard for one run's telemetry."""
    timeline = summary.timeline
    lines: list[str] = []
    duration = sum(w.width for w in timeline.windows)
    lines.append(
        f"== {title}: {summary.completions} completions over "
        f"{duration:.1f} s simulated, {len(timeline)} windows of "
        f"{timeline.window_s:.3g} s"
        + (f" (coalesced x{timeline.coalesce_rounds})"
           if timeline.coalesce_rounds else "")
    )
    if not timeline.windows:
        lines.append("(no windows recorded)")
        return "\n".join(lines)

    lines.append("-- per-backend cpu utilization / queue depth / "
                 "cache MB --")
    for sid in range(timeline.n_servers):
        util = timeline.utilization_series(sid)
        queue = [w.servers[sid].queue_depth for w in timeline.windows]
        cache = [w.servers[sid].cache_bytes / (1 << 20)
                 for w in timeline.windows]
        lines.append(
            f"backend {sid:2d}  util {_sparkline(util)} "
            f"{max(util):4.0%} peak"
        )
        lines.append(
            f"           queue {_sparkline(queue)} {max(queue):3d} peak"
            f"   cache {_sparkline(cache)} {cache[-1]:6.1f} MB"
        )
    completions = timeline.series("completions")
    dispatches = timeline.series("dispatches")
    lines.append("-- cluster --")
    lines.append(f"completions {_sparkline(completions)} "
                 f"{sum(completions)} total")
    lines.append(f"dispatches  {_sparkline(dispatches)} "
                 f"{sum(dispatches)} total")
    frontend = [w.frontend_utilization for w in timeline.windows]
    lines.append(f"frontend    {_sparkline(frontend)} "
                 f"{max(frontend):4.0%} peak util")
    flows_total: dict[str, int] = {}
    for w in timeline.windows:
        for key, value in w.flows:
            flows_total[key] = flows_total.get(key, 0) + value
    if flows_total:
        flows = ", ".join(f"{k}={v}" for k, v in
                          sorted(flows_total.items()))
        lines.append(f"routing paths: {flows}")
    lines.append(
        "latency: "
        f"p50 {summary.p50_response_s * 1e3:.2f} ms, "
        f"p95 {summary.p95_response_s * 1e3:.2f} ms, "
        f"p99 {summary.p99_response_s * 1e3:.2f} ms "
        f"(mean {summary.response_hist.mean * 1e3:.2f} ms); "
        f"service demand p50 "
        f"{summary.service_hist.percentile(50) * 1e3:.2f} ms"
    )
    if summary.phases:
        lines.append("-- wall-clock phases --")
        for name, t in sorted(summary.phases,
                              key=lambda kv: -kv[1].wall_s):
            rate = (f", {t.units_per_s:,.0f} units/s" if t.units else "")
            lines.append(f"  {name:<20s} {t.wall_s * 1e3:9.2f} ms "
                         f"x{t.calls}{rate}")
    return "\n".join(lines)

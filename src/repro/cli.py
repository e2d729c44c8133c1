"""Command-line interface: the paper's pipeline on real log files.

The paper's simulator "takes any log file in common log format as the
input"; this CLI exposes the same workflow::

    repro workload synthetic --out-dir /tmp/site      # make CLF logs
    repro mine /tmp/site/training.log                 # log-mining report
    repro simulate /tmp/site/access.log --policy prord
    repro compare /tmp/site/access.log
    repro report --full                               # paper figures
    repro table1

``python -m repro`` is equivalent to the ``repro`` entry point.
"""

from __future__ import annotations

import argparse
import math
import sys
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .core.config import SimulationParams
from .core.system import POLICY_NAMES, build_policy, mine_components, run_policy
from .logs.clf import CLFSource, ParseStats
from .logs.records import LogRecord
from .logs.workloads import WORKLOAD_PRESETS, Workload, make_workload
from .sim.differential import DEFAULT_POLICIES

__all__ = ["main", "build_parser"]


def _note_drops(stats: ParseStats, path: Path) -> None:
    if stats.dropped:
        print(f"note: {path}: {stats.summary()}")


def _note_findings(records: list[LogRecord]) -> None:
    from .logs.validate import validate_records
    for finding in validate_records(records).findings:
        if finding.severity != "info":
            print(f"note: {finding.code}: {finding.message}")


def _load_records(path: Path) -> list[LogRecord]:
    """Read a whole CLF file (plain or ``.gz``; undecodable bytes are
    replaced), noting dropped lines and validation findings."""
    source = CLFSource(path)
    records = list(source)
    _note_drops(source.stats, path)
    if not records:
        raise SystemExit(f"error: no parsable CLF lines in {path}")
    _note_findings(records)
    return records


def _workload_from_log(path: Path, train_fraction: float) -> Workload:
    """Split a raw log into a training prefix and an evaluation trace."""
    if not 0 < train_fraction < 1:
        raise SystemExit("error: --train-fraction must be in (0, 1)")
    records = _load_records(path)
    records.sort(key=lambda r: r.timestamp)
    cut = max(1, int(len(records) * train_fraction))
    training, evaluation = records[:cut], records[cut:]
    if not evaluation:
        raise SystemExit("error: log too short to split into train/eval")
    from .logs.sessions import trace_from_records
    trace = trace_from_records(evaluation, name=path.name)
    # No site model for raw logs: build a Workload-shaped stand-in.
    from .logs.site import Website
    site = Website([], name=path.stem)
    w = Workload(name=path.stem, site=site, training_records=training,
                 trace=trace)
    return w


# -- subcommands ------------------------------------------------------------


def cmd_workload(args: argparse.Namespace) -> int:
    from .logs.store import save_workload
    workload = make_workload(args.preset, scale=args.scale)
    out_dir = save_workload(workload, args.out_dir)
    print(workload.summary())
    print(f"wrote {len(workload.training_records)} training lines to "
          f"{out_dir / 'training.log'}")
    print(f"wrote {len(workload.trace)} evaluation lines to "
          f"{out_dir / 'access.log'} (+ trace.meta.jsonl, site.json)")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine a CLF log in one pass and print what the miners found.

    Without ``--stream`` the records are collected, validated and sorted
    by time first, so any log mines.  With ``--stream`` they fold
    straight off disk in constant memory, and the log must already be
    in time order.  ``--sample`` keeps whole clients, deterministically.
    """
    path = Path(args.logfile)
    if not args.session_timeout > 0:
        raise SystemExit("error: --session-timeout must be positive")
    if args.order < 1:
        raise SystemExit("error: --order must be >= 1")
    if args.top < 1:
        raise SystemExit("error: --top must be >= 1")
    try:
        source = CLFSource(path, sample_rate=args.sample,
                           sample_seed=args.sample_seed)
    except ValueError as exc:  # a --sample rate outside (0, 1]
        raise SystemExit(f"error: {exc}")
    records: Iterable[LogRecord] = source
    if not args.stream:
        collected = list(source)
        if collected:
            _note_findings(collected)
        collected.sort(key=attrgetter("timestamp"))
        records = collected
    from .mining.fold import StreamingModelFold
    fold = StreamingModelFold(
        SimulationParams(depgraph_order=args.order),
        timeout=args.session_timeout,
    )
    try:
        fold.add_records(records)
    except ValueError as exc:
        raise SystemExit(
            f"error: {path} is not in time order ({exc}); "
            "sort it or drop --stream"
        )
    _note_drops(source.stats, path)
    if source.sampler is not None:
        print(f"note: {source.sampler.describe()}: kept "
              f"{fold.records_seen} of "
              f"{fold.records_seen + source.sampled_out} records")
    if fold.records_seen == 0:
        if source.sampled_out:
            raise SystemExit(
                f"error: {source.sampler.describe()} kept none of the "
                f"{source.sampled_out} records; raise the rate or "
                "change the seed"
            )
        raise SystemExit(f"error: no parsable CLF lines in {path}")
    peak_open = fold.peak_open_sessions
    models = fold.finish()
    graph, ranks = models.graph, models.rank_table
    print(f"log: {fold.records_seen} requests, {len(ranks)} distinct files")
    print(f"sessions: {models.num_sessions} "
          f"(peak {peak_open} open; working set, not the trace)")
    print(f"dependency graph (order {graph.order}): "
          f"{graph.num_pages} pages, {graph.num_contexts} contexts, "
          f"{graph.memory_cells()} cells")
    print(f"bundles: {len(models.bundles)} pages with embedded objects")
    print("\ntop files by hits:")
    for path_, count in ranks.top(args.top):
        print(f"  {count:8d}  {path_}")
    top = ranks.top(1)
    if top:
        start = top[0][0]
        edges = graph.edge_confidences(start)
        if edges:
            print(f"\nnavigation out of {start!r}:")
            for page, conf in sorted(edges.items(),
                                     key=lambda kv: -kv[1])[:args.top]:
                print(f"  {conf:6.1%}  {page}")
    return 0


def _params_from_args(args: argparse.Namespace) -> SimulationParams:
    """The cluster the options ask for.  Commands build it before
    reading any input, so an out-of-range option fails first."""
    if args.backends < 1:
        raise SystemExit("error: --backends must be >= 1")
    kwargs = {"n_backends": args.backends}
    if args.cache_mb is not None:
        if not 0 <= args.cache_mb < math.inf:
            raise SystemExit("error: --cache-mb must be finite and >= 0")
        kwargs["cache_bytes"] = int(args.cache_mb * (1 << 20))
    return SimulationParams(**kwargs)


def _print_result(result) -> None:
    print(result.summary())
    r = result.report
    print(f"  completed {r.completed}, connections {r.connections}, "
          f"handoffs {r.handoffs}, dispatches {r.dispatches}")
    print(f"  p95 response {r.p95_response_s * 1e3:.1f} ms, "
          f"load imbalance {r.load_imbalance:.2f}")
    if r.prefetches_issued:
        print(f"  prefetches {r.prefetches_issued} "
              f"({r.prefetch_precision:.0%} useful), "
              f"replicated {r.replicated_bytes / 1024:.0f} KB")
    if result.audit is not None:
        a = result.audit
        print(f"  audit: {a.checks_run} invariant sweeps over "
              f"{a.events_seen} events, {a.violations} violations")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    workload = _workload_from_log(Path(args.logfile), args.train_fraction)
    result = run_policy(workload, args.policy, params, cache_fraction=None,
                        audit=args.audit)
    _print_result(result)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Run a policy over a saved workload directory.

    Unlike ``simulate`` (which splits one raw CLF file), this consumes a
    ``repro workload`` / ``save_workload`` directory: the site model and
    the exact evaluation trace come back from disk.  ``--stream`` keeps
    the whole run constant-memory — the training log is mined in one
    pass and the evaluation trace streams straight into the simulator
    (results are bit-identical to the materialized run).  ``--sample``
    replays a deterministic per-client subsample of the workload.
    """
    from .logs.store import load_workload
    params = _params_from_args(args)
    if not 0 < args.cache_fraction <= 2:
        raise SystemExit("error: --cache-fraction must be in (0, 2]")
    workload_dir = Path(args.workload_dir)
    try:
        workload = load_workload(
            workload_dir, stream=args.stream,
            sample_rate=args.sample, sample_seed=args.sample_seed,
        )
    except FileNotFoundError as exc:
        raise SystemExit(
            f"error: {workload_dir} is not a saved workload directory "
            f"({exc})"
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    cache_fraction = None if args.cache_mb is not None else args.cache_fraction
    result = run_policy(workload, args.policy, params,
                        cache_fraction=cache_fraction, audit=args.audit)
    if args.stream:
        stats = workload.training_records.stats
        if stats.dropped:
            print(f"note: training.log: {stats.summary()}")
    if args.sample is not None:
        from .logs.sampling import ClientSampler
        sampler = ClientSampler(args.sample, args.sample_seed)
        print(f"note: {sampler.describe()}: replayed "
              f"{len(workload.trace)} evaluation requests")
    _print_result(result)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    workload = _workload_from_log(Path(args.logfile), args.train_fraction)
    for policy in args.policies:
        result = run_policy(workload, policy, params, cache_fraction=None,
                            audit=args.audit)
        _print_result(result)
    return 0


def cmd_differential(args: argparse.Namespace) -> int:
    from .experiments import FULL, QUICK
    from .sim.differential import run_differential_suite
    report = run_differential_suite(
        FULL if args.full else QUICK,
        workload_name=args.workload,
        policies=tuple(args.policies),
        jobs=args.jobs,
    )
    print(report.format())
    return 0 if report.passed else 1


def cmd_capacity(args: argparse.Namespace) -> int:
    from .sim.closedloop import run_closed_loop
    from .logs.synthetic import TrafficSpec
    params = _params_from_args(args)
    if not 0 < args.duration < math.inf:
        raise SystemExit("error: --duration must be finite and > 0")
    if min(args.concurrency) < 1:
        raise SystemExit("error: --concurrency must be >= 1")
    workload = make_workload(args.preset, scale=0.05)
    if args.cache_mb is None:
        params = params.with_overrides(cache_bytes=int(
            0.3 * workload.site_bytes / params.n_backends))
    spec = TrafficSpec(think_time_mean=0.25, mean_session_pages=5,
                       max_session_pages=10)
    print(f"{'sessions':>9s} {'policy':>16s} {'thr (rps)':>10s} "
          f"{'resp (ms)':>10s}")
    for concurrency in args.concurrency:
        for name in args.policies:
            mining = (mine_components(workload, params)
                      if name == "prord" else None)
            policy, replicator = build_policy(name, mining, params)
            result = run_closed_loop(
                workload.site, policy, params,
                concurrency=concurrency, duration_s=args.duration,
                spec=spec, replicator=replicator,
            )
            print(f"{concurrency:9d} {name:>16s} "
                  f"{result.throughput_rps:10.0f} "
                  f"{result.mean_response_s * 1e3:10.1f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import FULL, QUICK
    from .experiments.report import run_all
    run_all(FULL if args.full else QUICK, jobs=args.jobs, audit=args.audit,
            model_cache=args.model_cache)
    return 0


def cmd_fig(args: argparse.Namespace) -> int:
    """Run one figure experiment (fig6..fig9), optionally in parallel."""
    from .experiments import FULL, QUICK, fig6, fig7, fig8, fig9
    module = {"fig6": fig6, "fig7": fig7,
              "fig8": fig8, "fig9": fig9}[args.figure]
    module.main(FULL if args.full else QUICK, jobs=args.jobs,
                audit=args.audit, model_cache=args.model_cache)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import table1
    table1.main()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static contract checks (reprolint): determinism, hook purity,
    pool-safety.  Exit 0 clean, 1 findings."""
    from .lint.cli import main as lint_main
    argv: list[str] = list(args.paths)
    for name in args.rule or ():
        argv += ["--rule", name]
    if args.list_rules:
        argv.append("--list-rules")
    if args.self_test:
        argv.append("--self-test")
    return lint_main(argv)


def cmd_timeline(args: argparse.Namespace) -> int:
    """Telemetered grid run: dashboards on stdout, artifacts on disk."""
    from datetime import datetime, timezone

    from .experiments import FULL, QUICK
    from .experiments.common import loaded_workload
    from .experiments.runner import Cell, run_grid
    from .obs import (
        build_manifest,
        merge_telemetry,
        render_dashboard,
        timeline_jsonl,
    )

    scale = FULL if args.full else QUICK
    workloads = {name: loaded_workload(name, scale)
                 for name in dict.fromkeys(args.workloads)}
    cells = [Cell(workload=w, policy=p)
             for w in workloads for p in args.policies]
    results = run_grid(cells, scale, jobs=args.jobs, workloads=workloads,
                       audit=args.audit, telemetry=True,
                       model_cache=args.model_cache)

    for r in results:
        title = f"{r.cell.policy} on {r.cell.workload}"
        print(render_dashboard(r.result.telemetry, title=title))
        print()
    merged = merge_telemetry([r.result.telemetry for r in results])
    print(f"grid: {merged.n_runs} runs, {merged.completions} completions, "
          f"p50 {merged.p50_response_s * 1e3:.2f} ms / "
          f"p95 {merged.p95_response_s * 1e3:.2f} ms / "
          f"p99 {merged.p99_response_s * 1e3:.2f} ms")

    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        entries = [
            ({"workload": r.cell.workload, "policy": r.cell.policy},
             r.result.telemetry)
            for r in results
        ]
        jsonl_path = out_dir / "timeline.jsonl"
        jsonl_path.write_text(timeline_jsonl(entries))
        manifest = build_manifest(
            results, scale,
            workloads=workloads,
            label="timeline",
            created_at=datetime.now(timezone.utc).isoformat(  # reprolint: disable=wall-clock -- manifest provenance stamp, excluded from the fingerprint's volatile section
                timespec="seconds"),
        )
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(manifest.to_json())
        print(f"wrote {jsonl_path}, {manifest_path}")
        print(f"manifest fingerprint: {manifest.fingerprint()}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRORD reproduction: web-log mining and cluster "
                    "simulation (ICPP 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workload", help="generate a synthetic CLF workload")
    p.add_argument("preset", choices=sorted(WORKLOAD_PRESETS))
    p.add_argument("--scale", type=float, default=0.1,
                   help="request-count multiplier (default 0.1)")
    p.add_argument("--out-dir", default=".",
                   help="directory for training.log / access.log")
    p.set_defaults(func=cmd_workload)

    def add_sample_options(p):
        p.add_argument("--sample", type=float, metavar="RATE", default=None,
                       help="deterministic per-client sampling: keep each "
                            "client's whole stream with probability RATE "
                            "in (0, 1]; same rate and seed always select "
                            "the same clients")
        p.add_argument("--sample-seed", type=int, default=0,
                       help="seed selecting which clients --sample keeps "
                            "(default 0)")

    p = sub.add_parser("mine", help="mine a CLF log file")
    p.add_argument("logfile")
    p.add_argument("--order", type=int, default=2,
                   help="dependency-graph order (default 2)")
    p.add_argument("--session-timeout", type=float, default=1800.0,
                   help="session gap in seconds (default 1800)")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the top-N listings")
    p.add_argument("--stream", action="store_true",
                   help="fold the log straight off disk in constant "
                        "memory instead of collecting and sorting it "
                        "first (the log must be in time order)")
    add_sample_options(p)
    p.set_defaults(func=cmd_mine)

    def add_audit_option(p):
        p.add_argument("--audit", action="store_true",
                       help="attach the strict simulation auditor "
                            "(runtime invariant checks; results are "
                            "bit-identical to unaudited runs)")

    def add_sim_options(p):
        p.add_argument("--backends", type=int, default=8)
        p.add_argument("--cache-mb", type=float, default=None,
                       help="per-server cache in MB (default: Table 1)")
        p.add_argument("--train-fraction", type=float, default=0.5,
                       help="leading fraction of the log used for mining")
        add_audit_option(p)

    p = sub.add_parser("simulate", help="replay a CLF log through the cluster")
    p.add_argument("logfile")
    p.add_argument("--policy", choices=POLICY_NAMES, default="prord")
    add_sim_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay",
                       help="run a policy over a saved workload directory")
    p.add_argument("workload_dir",
                   help="directory from 'repro workload' (site.json + "
                        "training.log + access.log)")
    p.add_argument("--policy", choices=POLICY_NAMES, default="prord")
    p.add_argument("--stream", action="store_true",
                   help="constant-memory run: mine the training log in "
                        "one pass and stream the evaluation trace into "
                        "the simulator (results are identical either "
                        "way)")
    add_sample_options(p)
    p.add_argument("--backends", type=int, default=8)
    p.add_argument("--cache-mb", type=float, default=None,
                   help="per-server cache in MB (overrides "
                        "--cache-fraction)")
    p.add_argument("--cache-fraction", type=float, default=0.3,
                   help="aggregate cluster cache as a fraction of the "
                        "site's bytes (default 0.3, Fig. 7)")
    add_audit_option(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("compare", help="run several policies over one log")
    p.add_argument("logfile")
    p.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                   default=["wrr", "lard", "ext-lard-phttp", "prord"])
    add_sim_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("capacity",
                       help="closed-loop capacity sweep on a preset workload")
    p.add_argument("preset", choices=sorted(WORKLOAD_PRESETS))
    p.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                   default=["wrr", "lard", "prord"])
    p.add_argument("--concurrency", nargs="+", type=int,
                   default=[100, 400, 1600])
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--backends", type=int, default=8)
    p.add_argument("--cache-mb", type=float, default=None)
    p.set_defaults(func=cmd_capacity)

    def add_jobs_option(p):
        p.add_argument("--jobs", type=int, default=0,
                       help="worker processes for the experiment grid "
                            "(0 = serial; results are identical either way)")

    def add_model_cache_option(p):
        p.add_argument("--model-cache", metavar="DIR", default=None,
                       help="directory caching mined models on disk; "
                            "repeated runs on unchanged workloads skip "
                            "the mining phases (results are identical "
                            "either way)")

    p = sub.add_parser("report", help="regenerate the paper's figures")
    p.add_argument("--full", action="store_true",
                   help="paper scale instead of quick scale")
    add_jobs_option(p)
    add_audit_option(p)
    add_model_cache_option(p)
    p.set_defaults(func=cmd_report)

    for figure in ("fig6", "fig7", "fig8", "fig9"):
        p = sub.add_parser(figure,
                           help=f"regenerate {figure} (grid runner)")
        p.add_argument("--full", action="store_true",
                       help="paper scale instead of quick scale")
        add_jobs_option(p)
        add_audit_option(p)
        add_model_cache_option(p)
        p.set_defaults(func=cmd_fig, figure=figure)

    p = sub.add_parser(
        "differential",
        help="cross-run equivalence checks (degraded PRORD == LARD, "
             "determinism, audit transparency, serial == --jobs)")
    p.add_argument("--workload", choices=sorted(WORKLOAD_PRESETS),
                   default="synthetic")
    p.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                   default=list(DEFAULT_POLICIES))
    p.add_argument("--full", action="store_true",
                   help="paper scale instead of quick scale")
    p.add_argument("--jobs", type=int, default=2,
                   help="pool size for the serial-vs-parallel grid check "
                        "(< 2 skips that check)")
    p.set_defaults(func=cmd_differential)

    p = sub.add_parser(
        "timeline",
        help="telemetered grid run: per-backend sparkline dashboards, "
             "timeline JSONL export, run manifest")
    p.add_argument("--workloads", nargs="+",
                   choices=sorted(WORKLOAD_PRESETS),
                   default=["synthetic"])
    p.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                   default=["lard", "prord"])
    p.add_argument("--full", action="store_true",
                   help="paper scale instead of quick scale")
    p.add_argument("--out-dir", default=None,
                   help="write timeline.jsonl and manifest.json here")
    add_jobs_option(p)
    add_audit_option(p)
    add_model_cache_option(p)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("table1", help="print the Table-1 parameter set")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "lint",
        help="static contract checks: determinism, hook purity, "
        "pool-safety (reprolint)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories (default: src/)")
    p.add_argument("--rule", action="append", metavar="NAME",
                   help="run only this rule (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    p.add_argument("--self-test", action="store_true",
                   help="verify every registered rule still fires")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

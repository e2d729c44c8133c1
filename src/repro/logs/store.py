"""Workload persistence: save/load sites and workloads on disk.

A saved workload is a directory of plain files:

* ``site.json`` — the website model (pages, bundles, links, categories);
* ``training.log`` — the training log in Common Log Format;
* ``access.log`` — the evaluation trace re-emitted as CLF;
* ``trace.meta.jsonl`` — sidecar with what CLF cannot carry: exact
  sub-second arrivals, connection ids, and the generator-assigned
  ``is_embedded``/``dynamic``/``parent`` flags per request.  Its format,
  writer and reader live in :mod:`repro.logs.replay`.

``access.log`` stays the public, tool-friendly artifact; the sidecar is
what makes ``save_workload → load_workload`` faithful.  Without it (real
logs dropped into a directory, or older saves) loading falls back to the
extension heuristics of :func:`~repro.logs.sessions.trace_from_records`,
which can disagree with generator-assigned flags on extension-less
paths — exactly the drift the sidecar exists to prevent.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from .clf import CLFSource, write_log
from .records import LogRecord, RequestSource, Trace
from .replay import SidecarRequestSource, read_sidecar, write_sidecar
from .site import Category, EmbeddedObject, Page, Website
from .workloads import Workload

__all__ = [
    "site_to_dict",
    "site_from_dict",
    "save_site",
    "load_site",
    "save_workload",
    "load_workload",
    "TRACE_META_NAME",
]

logger = logging.getLogger(__name__)

#: ``site.json`` format version (the trace sidecar versions itself in
#: :mod:`repro.logs.replay`).
_SITE_FORMAT_VERSION = 1

#: Name of the trace-metadata sidecar inside a workload directory.
TRACE_META_NAME = "trace.meta.jsonl"


def site_to_dict(site: Website) -> dict:
    """Serialize a website model to plain JSON-able data."""
    return {
        "format_version": _SITE_FORMAT_VERSION,
        "name": site.name,
        "pages": [
            {
                "path": p.path,
                "size": p.size,
                "dynamic": p.dynamic,
                "links": list(p.links),
                "embedded": [
                    {"path": o.path, "size": o.size} for o in p.embedded
                ],
            }
            for p in site.pages.values()
        ],
        "categories": [
            {
                "name": c.name,
                "entry_pages": list(c.entry_pages),
                "member_pages": list(c.member_pages),
            }
            for c in site.categories
        ],
    }


def site_from_dict(data: dict) -> Website:
    """Rebuild a website model from :func:`site_to_dict` output."""
    version = data.get("format_version")
    if version != _SITE_FORMAT_VERSION:
        raise ValueError(f"unsupported site format version: {version!r}")
    pages = [
        Page(
            path=p["path"],
            size=int(p["size"]),
            dynamic=bool(p.get("dynamic", False)),
            links=tuple(p.get("links", ())),
            embedded=tuple(
                EmbeddedObject(path=o["path"], size=int(o["size"]))
                for o in p.get("embedded", ())
            ),
        )
        for p in data["pages"]
    ]
    categories = [
        Category(
            name=c["name"],
            entry_pages=tuple(c["entry_pages"]),
            member_pages=tuple(c["member_pages"]),
        )
        for c in data.get("categories", ())
    ]
    return Website(pages, categories, name=data.get("name", "site"))


def save_site(site: Website, path: Path | str) -> None:
    Path(path).write_text(json.dumps(site_to_dict(site), indent=1))


def load_site(path: Path | str) -> Website:
    return site_from_dict(json.loads(Path(path).read_text()))


def save_workload(workload: Workload, directory: Path | str) -> Path:
    """Write a workload as ``site.json`` + two CLF logs + the trace
    sidecar; returns the dir."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_site(workload.site, directory / "site.json")
    with (directory / "training.log").open("w") as fp:
        write_log(fp, workload.training_records)
    # Positional, in LogRecord's field order: keywords cost more per row.
    eval_records = [
        LogRecord(r.client if r.client != "-" else f"c{r.conn_id}",
                  r.arrival, "GET", r.path, "HTTP/1.1", 200, r.size)
        for r in workload.trace
    ]
    with (directory / "access.log").open("w") as fp:
        write_log(fp, eval_records)
    write_sidecar(workload.trace, directory / TRACE_META_NAME)
    return directory


def _materialize(source: CLFSource) -> list[LogRecord]:
    """Materialize one pass of ``source``, logging any dropped lines."""
    records = list(source)
    if source.stats.dropped:
        logger.warning("%s: %s", source.path, source.stats.summary())
    return records


def load_workload(
    directory: Path | str,
    name: str | None = None,
    *,
    stream: bool = False,
    sample_rate: float | None = None,
    sample_seed: int = 0,
) -> Workload:
    """Load a workload saved by :func:`save_workload`.

    With the ``trace.meta.jsonl`` sidecar present the evaluation trace is
    reconstructed exactly — sub-second arrivals, connection structure,
    and embedded/dynamic flags all survive the round trip: a
    materialized load is ``Trace(read_sidecar(...))``, a streamed one a
    :class:`~repro.logs.replay.SidecarRequestSource` over the same
    reader, and both are validated by one
    :meth:`~repro.logs.records.TraceSummary.scan` before they are
    returned.  Without the sidecar (real logs, older saves) arrivals
    carry CLF's whole-second resolution and flags come from extension
    heuristics; a corrupt, stale or unreplayable sidecar (bad header,
    row count, arrival or size) logs a warning and falls back the same
    way.

    Both logs are read through :class:`~repro.logs.clf.CLFSource`, which
    replaces undecodable bytes instead of failing, so materialized and
    streamed loads read the same records.  ``stream=True`` keeps the
    workload lazy end to end: the training log stays a re-iterable
    ``CLFSource`` (which :func:`~repro.core.system.mine_models` folds
    straight off disk) and the evaluation trace is streamed straight
    into the simulator's arrival pump — a full replay never
    materializes the requests, and produces bit-identical results to
    the materialized path.  Streamed evaluation requires the sidecar
    (only it preserves exact arrivals and connection structure); when
    the sidecar is unusable the evaluation trace is materialized via the
    CLF heuristics with a WARNING, same as a materialized load.

    ``sample_rate`` applies deterministic per-client sampling
    (:class:`~repro.logs.sampling.ClientSampler`, seeded by
    ``sample_seed``) to *both* logs: a client's whole session stream is
    kept or dropped, so mined models and replays stay structurally
    representative, and materialized and streamed loads of the same
    sampled workload stay bit-identical.  Raises ``ValueError`` if
    sampling leaves an empty evaluation trace.

    Malformed log lines are never silently discarded: drop counts (with
    samples) are logged at WARNING level on the materialized paths, and
    streaming sources expose them as ``training_records.stats``.
    """
    directory = Path(directory)
    site = load_site(directory / "site.json")
    sampler = None
    if sample_rate is not None:
        from .sampling import ClientSampler
        sampler = ClientSampler(sample_rate, sample_seed)
    training: "list[LogRecord] | CLFSource" = CLFSource(
        directory / "training.log",
        sample_rate=sample_rate, sample_seed=sample_seed,
    )
    if not stream:
        training = _materialize(training)

    meta_path = directory / TRACE_META_NAME
    trace_name = f"{name or site.name}-eval"
    trace: RequestSource | None = None
    if meta_path.exists():
        try:
            if stream:
                trace = SidecarRequestSource(
                    meta_path, name=trace_name,
                    sample_rate=sample_rate, sample_seed=sample_seed,
                )
            else:
                trace = Trace(read_sidecar(meta_path, sampler),
                              name=trace_name)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            logger.warning(
                "%s: unusable trace sidecar (%s); falling back to CLF "
                "heuristics", meta_path, exc,
            )
    if trace is None:
        if stream:
            logger.warning(
                "%s: streamed evaluation requires the trace sidecar; "
                "materializing the heuristic trace instead",
                directory / "access.log",
            )
        eval_records = _materialize(CLFSource(
            directory / "access.log",
            sample_rate=sample_rate, sample_seed=sample_seed,
        ))
        if not eval_records:
            raise ValueError(f"no evaluation records in {directory}")
        from .sessions import trace_from_records
        trace = trace_from_records(eval_records, name=trace_name)
    if sampler is not None and len(trace) == 0:
        raise ValueError(
            f"{sampler.describe()} left no evaluation requests in "
            f"{directory}; raise the rate or change the seed"
        )
    return Workload(name=name or site.name, site=site,
                    training_records=training, trace=trace)

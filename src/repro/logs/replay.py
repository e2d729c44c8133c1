"""The trace sidecar: the on-disk replay format, and its streamed source.

A saved workload (:mod:`repro.logs.store`) carries ``trace.meta.jsonl``
next to ``access.log``: a header row, then one JSON row per request.
It is the only on-disk format that preserves exact sub-second arrivals,
connection ids and the generator-assigned ``is_embedded``/``dynamic``/
``parent`` flags, which is why streamed replay requires it and real CLF
logs without one fall back to the materialized heuristic path.

This module owns the format: its header constants, its one writer
(:func:`write_sidecar`), its one reader (:func:`read_sidecar`), and
:class:`SidecarRequestSource`, the lazy
:class:`~repro.logs.records.RequestSource` that streams the reader on
every pass.  A materialized load is ``Trace(read_sidecar(path))``; a
streamed load iterates the same reader, so the two replay
bit-identically (the differential battery and the hypothesis
properties in ``tests/test_streamed_replay.py`` hold them so).

:func:`request_from_row` rejects a row whose field has another type than
:func:`write_sidecar` writes, instead of converting it, and hands out
one shared object per distinct path, parent, client and size, from a
capped module-level memo like :mod:`repro.logs.clf`'s.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from .records import Request, RequestSource, TraceSummary, share

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .sampling import ClientSampler

__all__ = [
    "SidecarRequestSource",
    "write_sidecar",
    "read_sidecar",
    "read_sidecar_header",
    "request_from_row",
    "SIDECAR_KIND",
    "SIDECAR_FORMAT_VERSION",
]

#: ``kind`` tag of a ``trace.meta.jsonl`` header row.
SIDECAR_KIND = "prord-trace-meta"
#: Sidecar format version this module reads and writes.
SIDECAR_FORMAT_VERSION = 1


def write_sidecar(trace: RequestSource, path: Path) -> None:
    """Write ``trace`` as a sidecar: a header row, then one row per
    request."""
    with path.open("w") as fp:
        header = {
            "format_version": SIDECAR_FORMAT_VERSION,
            "kind": SIDECAR_KIND,
            "name": trace.name,
            "n": len(trace),
        }
        fp.write(json.dumps(header) + "\n")
        for r in trace:
            row = {
                "a": r.arrival,
                "c": r.conn_id,
                "p": r.path,
                "s": r.size,
                "e": r.is_embedded,
                "d": r.dynamic,
                "pa": r.parent,
                "cl": r.client,
            }
            fp.write(json.dumps(row) + "\n")


#: One object per distinct value: each path, parent and client string
#: read maps to its first copy in ``_SHARED_STR``, each size to its first
#: int in ``_SHARED_SIZE``, so a trace holds one string per distinct path
#: instead of one per request.  Each memo is capped by
#: :data:`~repro.logs.records.SHARED_MAX` and cleared when full, like the
#: CLF reader's (:mod:`repro.logs.clf`).
_SHARED_STR: dict[str, str] = {}
_SHARED_SIZE: dict[int, int] = {}
_str_get = _SHARED_STR.get
_size_get = _SHARED_SIZE.get


def _bad_field(key: str, value: Any) -> ValueError:
    return ValueError(f"trace sidecar field {key!r} has the wrong type: "
                      f"{value!r}")


def request_from_row(row: dict) -> Request:
    """Build a :class:`Request` from one sidecar JSONL row.

    Each field must have the type :func:`write_sidecar` writes: ``a`` an
    int or float, ``c`` and ``s`` ints (not bools), ``e`` and ``d``
    bools, ``p`` and ``cl`` strings, ``pa`` a string or null; anything
    else raises ``ValueError`` naming the field.  Equal path, parent,
    client and size values come back as one shared object.
    """
    arrival = row["a"]
    conn = row["c"]
    path = row["p"]
    size = row["s"]
    embedded = row["e"]
    parent = row["pa"]
    client = row["cl"]
    dynamic = row["d"]
    if type(arrival) is not float:
        if type(arrival) is not int:
            raise _bad_field("a", arrival)
        arrival = float(arrival)
    if type(conn) is not int:
        raise _bad_field("c", conn)
    if type(path) is not str:
        raise _bad_field("p", path)
    if type(size) is not int:
        raise _bad_field("s", size)
    # True and False are the only bools, and two identity tests cost
    # less than a type() call.
    if embedded is not False and embedded is not True:
        raise _bad_field("e", embedded)
    if parent is not None:
        if type(parent) is not str:
            raise _bad_field("pa", parent)
        parent = _str_get(parent) or share(_SHARED_STR, parent, parent)
    if type(client) is not str:
        raise _bad_field("cl", client)
    if dynamic is not False and dynamic is not True:
        raise _bad_field("d", dynamic)
    # A memo hit is one dict probe; a falsy hit ("" or 0) just re-adds it.
    # Positional, in Request's field order: keywords cost more per row.
    return Request(
        arrival, conn, _str_get(path) or share(_SHARED_STR, path, path),
        _size_get(size) or share(_SHARED_SIZE, size, size), embedded,
        parent, _str_get(client) or share(_SHARED_STR, client, client),
        dynamic,
    )


def read_sidecar_header(line: str) -> dict:
    """Parse and validate a sidecar header line; returns the header."""
    header = json.loads(line)
    if (not isinstance(header, dict)
            or header.get("kind") != SIDECAR_KIND
            or header.get("format_version") != SIDECAR_FORMAT_VERSION):
        raise ValueError(f"unrecognized trace sidecar header: {header!r}")
    return header


def read_sidecar(
    path: Path | str, sampler: ClientSampler | None = None
) -> Iterator[Request]:
    """Lazily yield the requests of a sidecar, in file order.

    The header is checked before the first request.  ``sampler`` keeps
    whole clients (:class:`~repro.logs.sampling.ClientSampler`); rows
    are counted before sampling, and once the file is exhausted a row
    count that differs from the header's raises ``ValueError`` (a
    truncated or stale sidecar).
    """
    requests = _read_rows(Path(path))
    if sampler is not None:
        requests = sampler.sample_requests(requests)
    return requests


#: ``json.loads`` without its per-call type checks and whitespace regexes;
#: :func:`_decode_row` restores the parts of its contract that matter.
_raw_decode = json.JSONDecoder().raw_decode


def _decode_row(line: str) -> Any:
    """Decode one sidecar line, accepting exactly what ``json.loads``
    accepts: one JSON value, with only JSON whitespace around it."""
    text = line.strip(" \t\n\r")
    row, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return row


def _read_rows(path: Path) -> Iterator[Request]:
    with path.open() as fp:
        header = read_sidecar_header(fp.readline())
        rows = 0
        for line in fp:
            rows += 1
            yield request_from_row(_decode_row(line))
    if rows != header["n"]:
        raise ValueError(
            f"trace sidecar truncated: header says {header['n']} "
            f"requests, found {rows}"
        )


class SidecarRequestSource(RequestSource):
    """Streams the exact evaluation trace out of ``trace.meta.jsonl``.

    Construction makes one full validation pass through
    :meth:`~repro.logs.records.TraceSummary.scan` — header, every row,
    arrivals, sizes, and the header's request count (a defective
    sidecar raises ``ValueError`` here, never mid-simulation) — and
    keeps only the summary.  Each iteration re-opens the file and
    yields requests lazily.

    ``sample_rate`` applies :class:`~repro.logs.sampling.ClientSampler`
    per client: the summary, ``len`` and every iteration then describe
    the *sampled* sub-trace consistently, and sampling the stream
    selects exactly the clients that sampling the materialized trace
    would.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        name: str | None = None,
        sample_rate: float | None = None,
        sample_seed: int = 0,
    ) -> None:
        self.path = Path(path)
        self.sampler: ClientSampler | None = None
        if sample_rate is not None:
            from .sampling import ClientSampler
            self.sampler = ClientSampler(sample_rate, sample_seed)
        with self.path.open() as fp:
            header = read_sidecar_header(fp.readline())
        self.name = name if name is not None else header.get("name", "trace")
        self.summary = TraceSummary.scan(self)

    def __iter__(self) -> Iterator[Request]:
        return read_sidecar(self.path, self.sampler)

    def __repr__(self) -> str:
        return (
            f"SidecarRequestSource({str(self.path)!r}, n={len(self)}, "
            f"sampler={self.sampler})"
        )

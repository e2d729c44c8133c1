"""Core web-log record types shared across the library.

Two levels of representation are used throughout:

* :class:`LogRecord` — one line of a web-server access log in Common Log
  Format (CLF).  This is what the mining layer consumes (the paper's
  "web log files").
* :class:`Request` — one HTTP request as seen by the cluster simulator:
  an arrival time, a persistent-connection identifier, the requested
  path, its size, and bundle metadata (whether the object is embedded in
  a parent page).  The simulator replays a :class:`RequestSource`: a
  re-iterable stream of time-ordered requests, grouped into persistent
  connections (HTTP/1.1 sessions), plus its :class:`TraceSummary`.
  :class:`Trace` is the in-memory source.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Mapping, TypeVar

__all__ = [
    "LogRecord",
    "Request",
    "TraceSummary",
    "RequestSource",
    "Trace",
]

_V = TypeVar("_V")


@dataclass(frozen=True, slots=True, init=False)
class LogRecord:
    """A single access-log entry (one CLF line).

    Attributes
    ----------
    host:
        Remote client host (IP or name).  Used as the session key.
    timestamp:
        Seconds since the epoch (float; sub-second resolution allowed).
    method:
        HTTP method, e.g. ``"GET"``.
    path:
        Requested URL path, e.g. ``"/courses/index.html"``.
    protocol:
        Protocol token from the request line, e.g. ``"HTTP/1.1"``.
    status:
        HTTP response status code.
    size:
        Response body size in bytes (0 when the log recorded ``-``).
    ident, authuser:
        The rarely-used CLF identity fields; kept for round-tripping.
    referer:
        Optional referer (combined-log extension); ``None`` for plain CLF.
    agent:
        Optional user-agent (combined-log extension); ``None`` for plain
        CLF.  Useful for bot filtering.
    """

    host: str
    timestamp: float
    method: str
    path: str
    protocol: str
    status: int
    size: int
    ident: str = "-"
    authuser: str = "-"
    referer: str | None = None
    agent: str | None = None

    # Hand-written (init=False): a frozen dataclass's generated __init__
    # stores each field through object.__setattr__, which looks the slot
    # up by name on every call.  Writing each slot through its member
    # descriptor's __set__, bound once below, builds the object in about
    # half the time, and every log line, sidecar row and rebased arrival
    # builds one.  The signature must match fields() (tests/test_records.py
    # checks it).
    def __init__(self, host: str, timestamp: float, method: str, path: str,
                 protocol: str, status: int, size: int, ident: str = "-",
                 authuser: str = "-", referer: str | None = None,
                 agent: str | None = None) -> None:
        _lr_host(self, host)
        _lr_timestamp(self, timestamp)
        _lr_method(self, method)
        _lr_path(self, path)
        _lr_protocol(self, protocol)
        _lr_status(self, status)
        _lr_size(self, size)
        _lr_ident(self, ident)
        _lr_authuser(self, authuser)
        _lr_referer(self, referer)
        _lr_agent(self, agent)

    def is_success(self) -> bool:
        """Whether the entry denotes a successfully served object (2xx/304)."""
        return 200 <= self.status < 300 or self.status == 304

    def with_time(self, timestamp: float) -> "LogRecord":
        """Return a copy shifted to ``timestamp``."""
        return replace(self, timestamp=timestamp)


@dataclass(frozen=True, slots=True, init=False)
class Request:
    """One request as presented to the cluster simulator.

    Attributes
    ----------
    arrival:
        Arrival time at the front end, in seconds (simulation clock).
    conn_id:
        Persistent-connection identifier.  All requests sharing a
        ``conn_id`` travel over one HTTP/1.1 connection, in order.
    path:
        Requested object path.
    size:
        Object size in bytes.
    is_embedded:
        True when the object is an embedded member of a page bundle
        (image/applet/stream fetched by the browser right after the
        parent page).
    parent:
        Path of the parent page for embedded objects; ``None`` for main
        pages.
    client:
        Client identity (host); per-client sampling keys on it.
    dynamic:
        True for generated (CGI) content: uncacheable, CPU-priced per
        request (dynamic-content extension; see DESIGN.md §7).
    """

    arrival: float
    conn_id: int
    path: str
    size: int
    is_embedded: bool = False
    parent: str | None = None
    client: str = "-"
    dynamic: bool = False

    # Hand-written for the same reason as LogRecord.__init__.
    def __init__(self, arrival: float, conn_id: int, path: str, size: int,
                 is_embedded: bool = False, parent: str | None = None,
                 client: str = "-", dynamic: bool = False) -> None:
        _rq_arrival(self, arrival)
        _rq_conn_id(self, conn_id)
        _rq_path(self, path)
        _rq_size(self, size)
        _rq_is_embedded(self, is_embedded)
        _rq_parent(self, parent)
        _rq_client(self, client)
        _rq_dynamic(self, dynamic)

    def is_main_page(self) -> bool:
        """Whether this request is for a main page (bundle root)."""
        return not self.is_embedded


def _slot_setters(cls: type) -> list:
    """Each field's member-descriptor ``__set__``, in field order."""
    return [getattr(cls, f.name).__set__ for f in fields(cls)]


(_lr_host, _lr_timestamp, _lr_method, _lr_path, _lr_protocol, _lr_status,
 _lr_size, _lr_ident, _lr_authuser, _lr_referer,
 _lr_agent) = _slot_setters(LogRecord)
(_rq_arrival, _rq_conn_id, _rq_path, _rq_size, _rq_is_embedded, _rq_parent,
 _rq_client, _rq_dynamic) = _slot_setters(Request)


#: Entries a log reader's value memo may hold.  The readers
#: (:mod:`repro.logs.clf`, :mod:`repro.logs.replay`) hand out one object
#: per distinct value from module-level memos; one that reaches this cap
#: is cleared, so no log can grow it without bound.  The bench and
#: memory-gate logs hold 3,551 to 17,682 distinct strings.
SHARED_MAX = 1 << 16


def share(memo: dict, key: object, value: _V) -> _V:
    """Store ``value`` under ``key`` in a reader's value memo, clearing
    the memo first if it is full; returns ``value``."""
    if len(memo) >= SHARED_MAX:
        memo.clear()
    memo[key] = value
    return value


@dataclass(frozen=True, slots=True)
class TraceSummary:
    """Everything the simulator needs about a trace before replaying it.

    All of it is O(catalog + connections) — the constant-memory residue
    of one pass over the requests, never the requests themselves.
    """

    #: Number of requests the source yields per iteration.
    n: int
    #: First arrival time (``0.0`` for an empty source).
    start: float
    #: Last arrival time (``0.0`` for an empty source).
    last: float
    #: Max observed size per path.
    catalog: dict[str, int]
    #: Requests per connection id (the simulator's close bookkeeping
    #: needs the full counts up front: a connection closes when its
    #: *last* request completes, which streaming cannot know locally).
    connection_counts: Counter

    @property
    def duration(self) -> float:
        return self.last - self.start if self.n else 0.0

    @staticmethod
    def scan(requests: Iterable[Request]) -> "TraceSummary":
        """Fold a time-ordered request stream into its summary.

        This is the one validation pass every replay input goes
        through: it raises ``ValueError`` on a non-finite or
        out-of-order arrival and on a non-positive size, none of which
        the simulator can replay.
        """
        inf = math.inf
        n = 0
        start = last = 0.0
        prev = -inf
        catalog: dict[str, int] = {}
        conns: Counter = Counter()
        for r in requests:
            arrival = r.arrival
            if not -inf < arrival < inf:  # NaN fails both comparisons
                raise ValueError(f"trace arrival is not finite: {arrival}")
            if arrival < prev:
                raise ValueError(
                    "trace requests must be sorted by arrival time: "
                    f"{arrival} < {prev}"
                )
            prev = arrival
            if n == 0:
                start = arrival
            last = arrival
            n += 1
            size = r.size
            if size <= 0:
                raise ValueError(
                    f"request size must be positive: {r.path} has {size}"
                )
            known = catalog.get(r.path)
            if known is None or size > known:
                catalog[r.path] = size
            conns[r.conn_id] += 1
        return TraceSummary(n=n, start=start, last=last,
                            catalog=catalog, connection_counts=conns)


class RequestSource:
    """A re-iterable, length-known stream of time-ordered requests.

    This is the one type the simulator replays.  Subclasses set
    ``name`` and ``summary`` (a :class:`TraceSummary`, normally built
    by :meth:`TraceSummary.scan` at construction) and implement
    ``__iter__``; every iteration must yield the same requests.
    :class:`Trace` holds them in a list;
    :class:`~repro.logs.replay.SidecarRequestSource` streams them off
    disk on every pass.
    """

    name: str = "stream"
    summary: TraceSummary

    def __iter__(self) -> Iterator[Request]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:
        return self.summary.n

    @property
    def catalog(self) -> Mapping[str, int]:
        """Max observed size per path (read-only by convention)."""
        return self.summary.catalog

    @property
    def total_bytes(self) -> int:
        """Sum of distinct file sizes (the website's resident data set)."""
        return sum(self.summary.catalog.values())

    @property
    def start(self) -> float:
        """First arrival time (0 for an empty source)."""
        return self.summary.start

    @property
    def duration(self) -> float:
        """Time span between first and last arrival (0 when empty)."""
        return self.summary.duration

    def connection_counts(self) -> Counter:
        """Requests per connection id (a fresh counter each call)."""
        return Counter(self.summary.connection_counts)


class Trace(RequestSource):
    """The in-memory request source: a list of time-ordered requests.

    The catalog maps every path appearing in the trace to its size in
    bytes; policies and the simulator use it to size caches and disk
    transfers without scanning the whole trace.
    """

    def __init__(self, requests: Iterable[Request], name: str = "trace") -> None:
        self._requests: list[Request] = list(requests)
        self.name = name
        self.summary = TraceSummary.scan(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, idx: int) -> Request:
        return self._requests[idx]

    def head(self, n: int) -> "Trace":
        """A new trace containing only the first ``n`` requests."""
        return Trace(self._requests[:n], name=f"{self.name}[:{n}]")

"""Session reconstruction from web logs.

The mining layer needs *user sessions* — maximal sequences of requests by
one client with no gap larger than a timeout — both to learn navigation
patterns (dependency graphs, sequence rules) and to model persistent
HTTP/1.1 connections in the simulator: the paper's distributor receives
"multiple requests from the same client ... through one single
connection", so each reconstructed session becomes one persistent
connection in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .records import LogRecord, Request, Trace

__all__ = [
    "Session",
    "sessionize",
    "StreamSessionizer",
    "iter_sessions",
    "page_sequences",
    "trace_from_records",
    "DEFAULT_SESSION_TIMEOUT",
]

#: Canonical web-usage-mining session gap (30 minutes).
DEFAULT_SESSION_TIMEOUT = 30 * 60.0

#: File extensions treated as embedded objects when no explicit site
#: model is available (images, applets, style/script assets, media).
EMBEDDED_EXTENSIONS = frozenset({
    ".gif", ".jpg", ".jpeg", ".png", ".bmp", ".ico",
    ".css", ".js", ".class", ".jar",
    ".wav", ".mp3", ".avi", ".mpg", ".mpeg", ".swf",
})


#: Markers of dynamically generated content in URL paths.
DYNAMIC_EXTENSIONS = frozenset({".cgi", ".php", ".asp", ".jsp", ".pl"})


def looks_embedded(path: str) -> bool:
    """Heuristic: does ``path`` name an embedded object (vs a main page)?"""
    dot = path.rfind(".")
    if dot < 0:
        return False
    return path[dot:].lower() in EMBEDDED_EXTENSIONS


def looks_dynamic(path: str) -> bool:
    """Heuristic: does ``path`` name dynamically generated content?"""
    if "?" in path or "/cgi-bin/" in path:
        return True
    base = path.split("?", 1)[0]
    dot = base.rfind(".")
    return dot >= 0 and base[dot:].lower() in DYNAMIC_EXTENSIONS


@dataclass(frozen=True, slots=True)
class Session:
    """One reconstructed user session.

    ``records`` are ordered by timestamp and all share ``client``.
    """

    client: str
    records: tuple[LogRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def start(self) -> float:
        return self.records[0].timestamp

    @property
    def end(self) -> float:
        return self.records[-1].timestamp

    @property
    def duration(self) -> float:
        return self.end - self.start

    def paths(self) -> list[str]:
        """All requested paths, in order."""
        return [r.path for r in self.records]

    def page_paths(self) -> list[str]:
        """Main-page paths only (embedded objects filtered heuristically)."""
        return [r.path for r in self.records if not looks_embedded(r.path)]


def sessionize(
    records: Iterable[LogRecord],
    *,
    timeout: float = DEFAULT_SESSION_TIMEOUT,
    successful_only: bool = True,
) -> list[Session]:
    """Group log records into sessions by client and inactivity timeout.

    Records need not be globally sorted; they are sorted per client.
    A new session starts whenever the gap between consecutive requests of
    the same client exceeds ``timeout`` seconds.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    by_client: dict[str, list[LogRecord]] = {}
    for rec in records:
        if successful_only and not rec.is_success():
            continue
        by_client.setdefault(rec.host, []).append(rec)

    sessions: list[Session] = []
    for client, recs in by_client.items():
        recs.sort(key=lambda r: r.timestamp)
        current: list[LogRecord] = []
        for rec in recs:
            if current and rec.timestamp - current[-1].timestamp > timeout:
                sessions.append(Session(client, tuple(current)))
                current = []
            current.append(rec)
        if current:
            sessions.append(Session(client, tuple(current)))
    sessions.sort(key=lambda s: (s.start, s.client))
    return sessions


class StreamSessionizer:
    """Incremental sessionizer: feed time-ordered records, collect
    retired sessions as soon as they go idle past the timeout.

    Where :func:`sessionize` buckets the *whole* log per client before
    emitting anything (O(trace) memory), this holds only the sessions
    still open inside the trailing timeout window — the working set a
    one-pass mining pipeline needs — and retires a session the moment
    the stream's clock passes ``last_request + timeout``.

    Records must arrive with non-decreasing timestamps (a log file's
    natural order); equal timestamps keep their feed order, matching the
    stable per-client sort of the batch path.  Fed the same records in
    time order, retired + flushed sessions are exactly
    ``sessionize(records)`` up to emission order (the batch path sorts
    by ``(start, client)``).  Emission order is part of the contract:
    the sessions one :meth:`feed` retires come out in ``(last activity,
    client)`` order, and :meth:`flush` emits in session-open order.

    A gap of exactly ``timeout`` seconds does **not** split a session —
    the split rule is strictly-greater, same as the batch path.
    """

    def __init__(
        self,
        *,
        timeout: float = DEFAULT_SESSION_TIMEOUT,
        successful_only: bool = True,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.successful_only = successful_only
        #: client -> (records, last_timestamp, open_seq), in order of last
        #: activity: every feed re-inserts its client at the end, and the
        #: clock never runs backwards, so the front expires first
        self._open: dict[str, tuple[list[LogRecord], float, int]] = {}
        self._opened = 0
        #: a lower bound on the front's last activity: while the clock is
        #: within ``timeout`` of it, no session can be idle
        self._oldest = float("inf")
        self._clock = float("-inf")
        #: total sessions retired (including flushed)
        self.sessions_emitted = 0
        #: high-water mark of concurrently open sessions (memory proof)
        self.peak_open = 0

    def __len__(self) -> int:
        """Number of currently open sessions."""
        return len(self._open)

    def _retire_idle(self, now: float) -> list[Session]:
        idle: list[tuple[float, str, list[LogRecord]]] = []
        open_ = self._open
        timeout = self.timeout
        self._oldest = float("inf")
        for client, (recs, last_ts, _) in open_.items():
            if now - last_ts <= timeout:
                self._oldest = last_ts
                break
            idle.append((last_ts, client, recs))
        for _, client, _ in idle:
            del open_[client]
        if len(idle) > 1:
            idle.sort(key=lambda entry: entry[:2])
        self.sessions_emitted += len(idle)
        return [Session(client, tuple(recs)) for _, client, recs in idle]

    def feed(self, rec: LogRecord) -> list[Session]:
        """Advance the stream by one record; return sessions retired by it.

        Raises ``ValueError`` if ``rec`` is older than a previously fed
        record — streaming requires the log's natural time order (sort
        the input, as the CLI does, when it is not).
        """
        ts = rec.timestamp
        if ts < self._clock:
            raise ValueError(
                f"records must be fed in time order: {ts} after {self._clock}"
            )
        self._clock = ts
        retired = (
            self._retire_idle(ts) if ts - self._oldest > self.timeout else []
        )
        if self.successful_only and not rec.is_success():
            return retired
        client = rec.host
        open_ = self._open
        entry = open_.pop(client, None)
        if entry is None:
            # Either a brand-new client or one whose previous session
            # was just retired above (gap > timeout either way).
            open_[client] = ([rec], ts, self._opened)
            self._opened += 1
            if len(open_) > self.peak_open:
                self.peak_open = len(open_)
        else:
            entry[0].append(rec)
            open_[client] = (entry[0], ts, entry[2])
        if ts < self._oldest:
            self._oldest = ts
        return retired

    def flush(self) -> list[Session]:
        """Retire every still-open session (end of stream), in the order
        the sessions opened."""
        entries = sorted(self._open.items(), key=lambda item: item[1][2])
        out = [Session(client, tuple(recs)) for client, (recs, _, _) in entries]
        self.sessions_emitted += len(out)
        self._open.clear()
        self._oldest = float("inf")
        return out


def iter_sessions(
    records: Iterable[LogRecord],
    *,
    timeout: float = DEFAULT_SESSION_TIMEOUT,
    successful_only: bool = True,
) -> Iterator[Session]:
    """Stream sessions out of time-ordered records, one pass, bounded
    memory — the generator face of :class:`StreamSessionizer`."""
    sessionizer = StreamSessionizer(
        timeout=timeout, successful_only=successful_only
    )
    for rec in records:
        yield from sessionizer.feed(rec)
    yield from sessionizer.flush()


def page_sequences(
    sessions: Sequence[Session],
    *,
    min_length: int = 1,
) -> list[list[str]]:
    """Extract per-session main-page navigation sequences for the miners."""
    out: list[list[str]] = []
    for s in sessions:
        seq = s.page_paths()
        if len(seq) >= min_length:
            out.append(seq)
    return out


def trace_from_records(
    records: Iterable[LogRecord],
    *,
    timeout: float = DEFAULT_SESSION_TIMEOUT,
    name: str = "log-trace",
) -> Trace:
    """Convert raw log records into a simulator :class:`Trace`.

    Each session becomes one persistent connection; embedded objects are
    tagged by extension heuristic, with the most recent main page of the
    same session as their parent.
    """
    sessions = sessionize(records, timeout=timeout)
    requests: list[Request] = []
    for conn_id, sess in enumerate(sessions):
        parent: str | None = None
        for rec in sess.records:
            embedded = looks_embedded(rec.path)
            if not embedded:
                parent = rec.path
            # Positional, in Request's field order: keywords cost more
            # per request.
            requests.append(Request(
                rec.timestamp, conn_id, rec.path, max(rec.size, 1),
                embedded, parent if embedded else None, sess.client,
                looks_dynamic(rec.path),
            ))
    requests.sort(key=lambda r: (r.arrival, r.conn_id))
    return Trace(requests, name=name)

"""Common Log Format (CLF) parsing and formatting.

The paper's simulator "takes any log file in common log format as the
input"; this module is the corresponding substrate.  It supports both the
plain CLF::

    host ident authuser [dd/Mon/yyyy:HH:MM:SS zone] "METHOD /path PROTO" status size

and the combined format's referer/user-agent extensions (two extra
quoted fields), which the sessionizer can exploit when present.

Four properties the rest of the pipeline depends on:

* **lossless round-trip** — ``parse_line(format_line(r))`` recovers every
  field (whole-second timestamps aside).  Quoted fields are
  backslash-escaped on write, Apache-style, so a referer or user-agent
  containing ``"`` or ``\\`` cannot corrupt the emitted line, and the
  empty string / literal ``-`` survive the trip;
* **observable loss** — lenient parsing (``strict=False``) never drops a
  malformed line silently: every call can account for dropped lines via
  :class:`ParseStats` or an ``on_drop`` callback;
* **one reader** — :func:`iter_log` / :class:`CLFSource` stream a log
  file record by record, never materializing it, which is what lets
  the sessionizer and the miners run one-pass on WorldCup'98-class
  traces.  Every file reader goes through them, so every one reads
  ``.gz`` logs and replaces undecodable bytes instead of failing;
* **one object per distinct value** — :func:`parse_line` hands out one
  shared string per distinct host, method, path, protocol, referer and
  agent, and one int per distinct status and size text, from a capped
  module-level memo, so a loaded log costs memory per distinct value,
  not per line.  Only identity is shared: every value is what it was.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO

from .records import LogRecord, share

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .sampling import ClientSampler

__all__ = [
    "CLFParseError",
    "ParseStats",
    "parse_line",
    "format_line",
    "parse_lines",
    "write_log",
    "iter_log",
    "CLFSource",
]

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

# Quoted fields (referer / user-agent) allow backslash escapes so an
# embedded '"' cannot terminate the field early.  ``re.ASCII``: CLF's
# digits and separators are ASCII, so neither another script's digits
# (which ``int`` would accept) nor a no-break space passes for them.
_QUOTED = r'(?:[^"\\]|\\.)*'
_CLF_RE = re.compile(
    r'^(?P<host>\S+)\s+(?P<ident>\S+)\s+(?P<authuser>\S+)\s+'
    r'\[(?P<stamp>\d{2}/[A-Z][a-z]{2}/\d{4}:'
    r'\d{2}:\d{2}:\d{2}\s+[+-]\d{4})\]\s+'
    r'"(?P<method>\S+)\s+(?P<path>\S+)(?:\s+(?P<proto>[^"]+))?"\s+'
    r'(?P<status>\d{3})\s+(?P<size>\d+|-)'
    rf'(?:\s+"(?P<referer>{_QUOTED})")?'
    rf'(?:\s+"(?P<agent>{_QUOTED})")?',
    re.ASCII,
)


class CLFParseError(ValueError):
    """Raised when a line cannot be parsed as Common Log Format."""

    def __init__(self, line: str, reason: str = "malformed CLF line") -> None:
        super().__init__(f"{reason}: {line!r}")
        self.line = line


@dataclass(slots=True)
class ParseStats:
    """Malformed-line accounting for one lenient parsing pass.

    ``strict=False`` parsing used to discard garbage lines invisibly;
    every drop is now counted here (and a bounded sample of the dropped
    lines kept for diagnosis), so real-log ingestion loss is observable.
    """

    #: Non-blank lines seen (parsed + dropped).
    total: int = 0
    #: Lines successfully parsed into records.
    parsed: int = 0
    #: Blank/whitespace-only lines skipped (not counted as loss).
    blank: int = 0
    #: Malformed lines discarded by lenient parsing.
    dropped: int = 0
    #: First few dropped lines, verbatim, for diagnosis.
    samples: list[str] = field(default_factory=list)

    MAX_SAMPLES = 5

    def record_drop(self, line: str) -> None:
        self.dropped += 1
        if len(self.samples) < self.MAX_SAMPLES:
            self.samples.append(line.rstrip("\n"))

    @property
    def drop_fraction(self) -> float:
        """Dropped share of non-blank lines (0.0 for a clean log)."""
        return self.dropped / self.total if self.total else 0.0

    def reset(self) -> None:
        self.total = self.parsed = self.blank = self.dropped = 0
        self.samples.clear()

    def summary(self) -> str:
        if not self.dropped:
            return f"{self.parsed} lines parsed, 0 dropped"
        head = (
            f"{self.parsed} lines parsed, {self.dropped} malformed "
            f"line(s) dropped ({self.drop_fraction:.2%})"
        )
        if self.samples:
            head += f"; first: {self.samples[0]!r}"
        return head


def _zone_offset_seconds(zone: str) -> int:
    sign = 1 if zone[0] == "+" else -1
    hours = int(zone[1:3])
    minutes = int(zone[3:5])
    return sign * (hours * 3600 + minutes * 60)


#: Real UTC offsets lie within UTC−12:00 … UTC+14:00.
_ZONE_MIN_S = -12 * 3600
_ZONE_MAX_S = 14 * 3600


#: Escapes applied to quoted fields on write (Apache's mod_log_config
#: convention, plus "\-" so a literal "-" is distinguishable from the
#: CLF missing-value marker).
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t",
              "-": "-"}
_NEEDS_ESCAPE = re.compile(r'["\\\n\r\t]|[\x00-\x1f]')
_ESCAPE_SEQ = re.compile(r"\\(x[0-9a-fA-F]{2}|.)", re.DOTALL)


def _escape_quoted(value: str) -> str:
    """Escape a referer/user-agent value for emission inside quotes."""
    if value == "-":
        # A literal "-" would read back as the missing-value marker.
        return "\\-"

    def sub(m: re.Match[str]) -> str:
        ch = m.group(0)
        mapped = _ESCAPES.get(ch)
        if mapped is not None:
            return mapped
        return f"\\x{ord(ch):02x}"

    return _NEEDS_ESCAPE.sub(sub, value)


def _unescape_quoted(value: str) -> str:
    """Invert :func:`_escape_quoted` (unknown escapes pass through)."""
    if "\\" not in value:
        return value

    def sub(m: re.Match[str]) -> str:
        seq = m.group(1)
        if seq.startswith("x") and len(seq) == 3:
            return chr(int(seq[1:], 16))
        return _UNESCAPES.get(seq, seq)

    return _ESCAPE_SEQ.sub(sub, value)


#: Epoch of each bracketed stamp text seen (``"10/Oct/2000:13:55:36
#: -0700"``, as a float): a log has many lines per second, so a line's
#: timestamp is one dict probe.  On a miss the time of day is range-checked
#: and the day's midnight comes from ``_DAY_EPOCH``, the epoch of local
#: midnight per ``("dd/Mon/yyyy", zone)``, so ``calendar.timegm`` and the
#: zone arithmetic run once per log day.  Both are cleared when full, so a
#: log with a new second (or date) on every line cannot grow them unbounded.
_STAMP_EPOCH: dict[str, float] = {}
_DAY_EPOCH: dict[tuple[str, str], int] = {}
_MEMO_MAX = 4096


def _stamp_epoch(line: str, stamp: str) -> float:
    """Compute and memoize the epoch of a ``dd/Mon/yyyy:HH:MM:SS zone``
    stamp, rejecting a field outside its range instead of rolling it
    into the next minute, day or month."""
    hh, mm, ss = int(stamp[12:14]), int(stamp[15:17]), int(stamp[18:20])
    if hh >= 24 or mm >= 60 or ss > 60:  # :60 is a leap second
        raise CLFParseError(line, "time of day out of range")
    date, zone = stamp[:11], stamp[-5:]
    midnight = _DAY_EPOCH.get((date, zone))
    if midnight is None:
        midnight = _day_epoch(line, date, zone)
    epoch = float(midnight + hh * 3600 + mm * 60 + ss)
    if len(_STAMP_EPOCH) >= _MEMO_MAX:
        _STAMP_EPOCH.clear()
    _STAMP_EPOCH[stamp] = epoch
    return epoch


def _day_epoch(line: str, date: str, zone: str) -> int:
    """Compute and memoize the epoch of ``date`` (``dd/Mon/yyyy``) at
    00:00:00 in ``zone``, rejecting a day outside its month, zone
    minutes outside the hour and an offset outside −12:00…+14:00."""
    import calendar

    month = _MONTHS.get(date[3:6])
    if month is None:
        raise CLFParseError(line, "unknown month abbreviation")
    year, day = int(date[7:11]), int(date[:2])
    if not 1 <= day <= calendar.monthrange(year, month)[1]:
        raise CLFParseError(line, "day out of range for its month")
    if int(zone[3:5]) >= 60:
        raise CLFParseError(line, "zone minutes out of range")
    offset = _zone_offset_seconds(zone)
    if not _ZONE_MIN_S <= offset <= _ZONE_MAX_S:
        raise CLFParseError(line, "zone offset out of range")
    try:
        midnight = calendar.timegm((year, month, day, 0, 0, 0))
    except ValueError as exc:  # year 0000 is outside datetime's range
        raise CLFParseError(line, f"invalid date ({exc})") from None
    epoch = midnight - offset
    if len(_DAY_EPOCH) >= _MEMO_MAX:
        _DAY_EPOCH.clear()
    _DAY_EPOCH[date, zone] = epoch
    return epoch


#: One object per distinct value: ``_SHARED_STR`` maps each host, method,
#: path, protocol, referer and agent string seen to its first copy, and
#: ``_SHARED_NUM`` each status or size text to its int, so the records
#: of a log hold one string per distinct path instead of one per line.
#: Two memos, so a path ``"123"`` never comes back as an int.  Each is
#: capped by :data:`~repro.logs.records.SHARED_MAX` and cleared when
#: full, like ``_STAMP_EPOCH``.
_SHARED_STR: dict[str, str] = {}
_SHARED_NUM: dict[str, int] = {}
_str_get = _SHARED_STR.get
_num_get = _SHARED_NUM.get


def parse_line(line: str) -> LogRecord:
    """Parse one CLF (or combined-referer) line into a :class:`LogRecord`.

    Equal host, method, path, protocol, referer and agent values, and
    equal status and size texts, come back as one shared object.

    Raises
    ------
    CLFParseError
        If the line does not match the format, or a timestamp field is
        outside its range (day of month, hour, minute, second, zone).
    """
    m = _CLF_RE.match(line.strip())
    if m is None:
        raise CLFParseError(line)
    (host, ident, authuser, stamp, method, path, proto, status, size,
     referer, agent) = m.groups()
    # CLF timestamps are local time plus an explicit zone; convert to epoch.
    epoch = _STAMP_EPOCH.get(stamp)
    if epoch is None:
        epoch = _stamp_epoch(line, stamp)
    if referer is not None:
        if referer == "-":
            referer = None
        else:
            referer = _unescape_quoted(referer)
            referer = _str_get(referer) or share(_SHARED_STR, referer, referer)
    if agent is not None:
        if agent == "-":
            agent = None
        else:
            agent = _unescape_quoted(agent)
            agent = _str_get(agent) or share(_SHARED_STR, agent, agent)
    proto = (proto or "HTTP/1.0").strip()
    # A memo hit is one dict probe; a falsy hit ("" or 0) just re-adds it.
    # Positional, in LogRecord's field order: keywords cost more per line.
    return LogRecord(
        _str_get(host) or share(_SHARED_STR, host, host), epoch,
        _str_get(method) or share(_SHARED_STR, method, method),
        _str_get(path) or share(_SHARED_STR, path, path),
        _str_get(proto) or share(_SHARED_STR, proto, proto),
        _num_get(status) or share(_SHARED_NUM, status, int(status)),
        0 if size == "-" else (
            _num_get(size) or share(_SHARED_NUM, size, int(size))),
        ident, authuser, referer, agent,
    )


_BARE_FIELD_BAD = re.compile(r"[\s\"\x00-\x1f]")


def _check_bare(name: str, value: str) -> str:
    """Reject a whitespace-delimited field that would emit an
    unparseable line (whitespace, quotes, control characters)."""
    if not value or _BARE_FIELD_BAD.search(value):
        raise ValueError(
            f"CLF field {name}={value!r} cannot be emitted: it contains "
            "whitespace, quotes, or control characters (or is empty)"
        )
    return value


def format_line(record: LogRecord) -> str:
    """Format a :class:`LogRecord` back into a CLF line.

    Sub-second precision is truncated (CLF stores whole seconds), so
    ``parse_line(format_line(r))`` round-trips every field except the
    fractional part of the timestamp.  Referer/user-agent values are
    backslash-escaped; whitespace-delimited fields that cannot be
    represented (embedded spaces, quotes, control characters) raise
    ``ValueError`` instead of silently emitting a corrupt line.
    """
    t = int(record.timestamp)
    year, mon, day, hh, mm, ss, _, _, _ = time.gmtime(t)
    stamp = (
        f"{day:02d}/{_MONTH_NAMES[mon]}/{year:04d}:"
        f"{hh:02d}:{mm:02d}:{ss:02d} +0000"
    )
    host = _check_bare("host", record.host)
    ident = _check_bare("ident", record.ident)
    authuser = _check_bare("authuser", record.authuser)
    method = _check_bare("method", record.method)
    path = _check_bare("path", record.path)
    proto = record.protocol
    if '"' in proto or "\n" in proto or "\r" in proto:
        raise ValueError(f"CLF protocol {proto!r} cannot be emitted")
    base = (
        f"{host} {ident} {authuser} [{stamp}] "
        f'"{method} {path} {proto}" '
        f"{record.status} {record.size}"
    )
    if record.referer is not None or record.agent is not None:
        ref = "-" if record.referer is None else _escape_quoted(record.referer)
        base += f' "{ref}"'
    if record.agent is not None:
        base += f' "{_escape_quoted(record.agent)}"'
    return base


def parse_lines(
    lines: Iterable[str],
    *,
    strict: bool = True,
    stats: ParseStats | None = None,
    on_drop: Callable[[str, CLFParseError], None] | None = None,
) -> Iterator[LogRecord]:
    """Parse an iterable of lines, skipping blanks.

    With ``strict=False``, malformed lines are dropped instead of
    raising (real-world logs routinely contain garbage lines) — but
    never silently: pass ``stats`` (a :class:`ParseStats`, updated in
    place) and/or ``on_drop`` (called with the offending line and the
    parse error) to account for every dropped line.
    """
    for line in lines:
        if not line.strip():
            if stats is not None:
                stats.blank += 1
            continue
        if stats is not None:
            stats.total += 1
        try:
            rec = parse_line(line)
        except CLFParseError as exc:
            if strict:
                raise
            if stats is not None:
                stats.record_drop(line)
            if on_drop is not None:
                on_drop(line, exc)
            continue
        if stats is not None:
            stats.parsed += 1
        yield rec


def write_log(fp: TextIO, records: Iterable[LogRecord]) -> int:
    """Write records as CLF lines; returns the number of lines written."""
    n = 0
    for rec in records:
        fp.write(format_line(rec) + "\n")
        n += 1
    return n


def _open_text(path: Path) -> TextIO:
    if path.suffix == ".gz":
        import gzip
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return path.open("r", encoding="utf-8", errors="replace")


def iter_log(
    path: Path | str,
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
) -> Iterator[LogRecord]:
    """Stream a log file as records without materializing it.

    Opens ``path`` (gzip-transparent for ``.gz``), yields one
    :class:`LogRecord` at a time, and closes the file when exhausted or
    the generator is discarded.  Defaults to lenient parsing — real logs
    are messy — so pass ``stats`` to observe drops.
    """
    path = Path(path)
    with _open_text(path) as fp:
        yield from parse_lines(fp, strict=strict, stats=stats)


class CLFSource:
    """A re-iterable, constant-memory view of a CLF file on disk.

    Each iteration re-opens the file and re-parses it lazily; ``stats``
    always describes the *latest completed or in-progress* pass, so
    after one full iteration the dropped-line count of the file is
    available without ever holding the records in memory.

    ``sample_rate`` applies deterministic per-client sampling
    (:class:`~repro.logs.sampling.ClientSampler`): a host's records are
    all kept or all dropped, decided purely by ``(sample_seed,
    sample_rate, host)`` — identical across re-iterations, gzip vs
    plain storage, and record order.  Sampled-out records are counted
    in ``sampled_out`` (per pass), separately from parse drops.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        strict: bool = False,
        sample_rate: float | None = None,
        sample_seed: int = 0,
    ) -> None:
        self.path = Path(path)
        self.strict = strict
        self.stats = ParseStats()
        self.sampler: ClientSampler | None = None
        if sample_rate is not None:
            from .sampling import ClientSampler
            self.sampler = ClientSampler(sample_rate, sample_seed)
        #: Records dropped by client sampling in the latest pass.
        self.sampled_out = 0

    def __iter__(self) -> Iterator[LogRecord]:
        self.stats.reset()
        self.sampled_out = 0
        records = iter_log(self.path, strict=self.strict, stats=self.stats)
        if self.sampler is None:
            return records
        return self._sampled(records)

    def _sampled(self, records: Iterator[LogRecord]) -> Iterator[LogRecord]:
        keep = self.sampler.keep
        for rec in records:
            if keep(rec.host):
                yield rec
            else:
                self.sampled_out += 1

    def __repr__(self) -> str:
        extra = (
            f", sampler={self.sampler}" if self.sampler is not None else ""
        )
        return f"CLFSource({str(self.path)!r}, strict={self.strict}{extra})"

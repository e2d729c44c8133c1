"""Unit and property tests for Common Log Format parsing/formatting."""

import calendar
import gzip
import io
import time

import pytest
from hypothesis import example, given, strategies as st

from repro.logs import clf
from repro.logs import (
    CLFParseError,
    CLFSource,
    LogRecord,
    ParseStats,
    format_line,
    iter_log,
    parse_line,
    parse_lines,
    write_log,
)

SAMPLE = '192.168.0.7 - frank [10/Oct/2000:13:55:36 -0700] "GET /apache_pb.gif HTTP/1.0" 200 2326'

MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

MALFORMED = [
    "",
    "not a log line",
    '1.2.3.4 - - [10/Xxx/2000:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:13:55:36 +0000] "GET /x HTTP/1.0" abc 10',
    # matches the grammar, but year 0 is outside the calendar's range
    '1.2.3.4 - - [10/Oct/0000:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    # match the grammar, but a field is outside its range: none may roll
    # over into the next minute, day or month
    '1.2.3.4 - - [32/Jan/2001:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [00/Jan/2001:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [30/Feb/2000:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [29/Feb/2001:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [31/Apr/2001:13:55:36 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:24:00:00 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:23:60:00 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:23:59:61 +0000] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:13:55:36 +0099] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:13:55:36 -0160] "GET /x HTTP/1.0" 200 10',
    # zone offsets outside UTC-12:00 ... UTC+14:00
    '1.2.3.4 - - [10/Oct/2000:13:55:36 +2359] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:13:55:36 +9900] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:13:55:36 +1401] "GET /x HTTP/1.0" 200 10',
    '1.2.3.4 - - [10/Oct/2000:13:55:36 -1201] "GET /x HTTP/1.0" 200 10',
    # CLF's digits and separators are ASCII: Arabic-Indic digits in the
    # date and status, and no-break spaces between the fields
    '1.2.3.4 - - [\u0661\u0660/Oct/2000:13:55:36 +0000] "GET /x HTTP/1.0" '
    '\u0662\u0660\u0660 10',
    '1.2.3.4\u00a0-\u00a0-\u00a0[10/Oct/2000:13:55:36\u00a0+0000]\u00a0'
    '"GET\u00a0/x\u00a0HTTP/1.0"\u00a0200\u00a010',
]

#: Real UTC offsets, in seconds.
ZONE_MIN_S, ZONE_MAX_S = -12 * 3600, 14 * 3600


def _stamp(t, zone, spaces):
    """The CLF stamp of local time ``t`` (epoch seconds) in ``zone``,
    with ``spaces`` spaces before the zone."""
    y, mo, d, h, m, s = time.gmtime(t)[:6]
    return (f"{d:02d}/{MONTHS[mo - 1]}/{y:04d}:{h:02d}:{m:02d}:{s:02d}"
            f"{' ' * spaces}{zone}")


class TestParseLine:
    def test_sample_fields(self):
        rec = parse_line(SAMPLE)
        assert rec.host == "192.168.0.7"
        assert rec.authuser == "frank"
        assert rec.method == "GET"
        assert rec.path == "/apache_pb.gif"
        assert rec.protocol == "HTTP/1.0"
        assert rec.status == 200
        assert rec.size == 2326

    def test_timezone_applied(self):
        east = parse_line(SAMPLE.replace("-0700", "+0000"))
        west = parse_line(SAMPLE)
        assert west.timestamp - east.timestamp == 7 * 3600

    @pytest.mark.parametrize("zone,offset", [("+1400", 14 * 3600),
                                             ("-1200", -12 * 3600)])
    def test_extreme_real_zones_parse(self, zone, offset):
        utc = parse_line(SAMPLE.replace("-0700", "+0000"))
        assert parse_line(SAMPLE.replace("-0700", zone)).timestamp == (
            utc.timestamp - offset
        )

    def test_dash_size_is_zero(self):
        rec = parse_line(SAMPLE.replace(" 200 2326", " 304 -"))
        assert rec.size == 0
        assert rec.status == 304

    def test_missing_protocol_defaults(self):
        line = '1.2.3.4 - - [10/Oct/2000:13:55:36 +0000] "GET /x" 200 10'
        assert parse_line(line).protocol == "HTTP/1.0"

    def test_referer_extension(self):
        rec = parse_line(SAMPLE + ' "http://ref.example/"')
        assert rec.referer == "http://ref.example/"

    def test_dash_referer_is_none(self):
        rec = parse_line(SAMPLE + ' "-"')
        assert rec.referer is None

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_raises(self, bad):
        with pytest.raises(CLFParseError):
            parse_line(bad)

    def test_parse_error_carries_line(self):
        with pytest.raises(CLFParseError) as ei:
            parse_line("garbage")
        assert ei.value.line == "garbage"

    @given(stamps=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9999),
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=31),
            st.integers(min_value=0, max_value=23),
            st.integers(min_value=0, max_value=59),
            st.integers(min_value=0, max_value=60),
            st.sampled_from(["+", "-"]),
            st.integers(min_value=0, max_value=14),
            st.sampled_from([0, 15, 30, 45]),
            st.integers(min_value=1, max_value=3),
        ).filter(lambda s: s[7] or s[8]),  # non-zero zones only
        min_size=1, max_size=12,
    ), run=st.integers(min_value=0, max_value=5000))
    @example(stamps=[(2016, 12, 31, 23, 59, 60, "+", 1, 0, 1)], run=0)
    @example(stamps=[(2000, 2, 29, 0, 0, 0, "-", 5, 0, 2)], run=0)
    @example(stamps=[(2001, 12, 31, 23, 0, 0, "-", 1, 30, 1)], run=5000)
    def test_property_timestamp_matches_timegm(self, stamps, run):
        # Each date is stamped under two zones at two times of day, so the
        # same date recurs under different zones, a memoized day or stamp
        # is reused at another time, and the date changes between stamps.
        # One to three spaces precede the zone; day 31 exists in some
        # months only, second 60 (a leap second) is valid, and a zone
        # outside -12:00 ... +14:00 is rejected.
        for y, mo, d, hh, mm, ss, sign, zh, zm, spaces in stamps:
            for zone_h in ((zh + 5) % 14 + 1, zh):
                for h, m in ((hh, mm), ((hh + 7) % 24, (mm + 13) % 60)):
                    zone = f"{sign}{zone_h:02d}{zm:02d}"
                    offset = zone_h * 3600 + zm * 60
                    if sign == "-":
                        offset = -offset
                    line = (
                        f"h - - [{d:02d}/{MONTHS[mo - 1]}/{y:04d}:"
                        f"{h:02d}:{m:02d}:{ss:02d}{' ' * spaces}{zone}]"
                        ' "GET /x" 200 1'
                    )
                    if d > calendar.monthrange(y, mo)[1]:
                        with pytest.raises(CLFParseError, match="day out"):
                            parse_line(line)
                        continue
                    if not ZONE_MIN_S <= offset <= ZONE_MAX_S:
                        with pytest.raises(CLFParseError,
                                           match="zone offset"):
                            parse_line(line)
                        continue
                    assert parse_line(line).timestamp == (
                        calendar.timegm((y, mo, d, h, m, ss)) - offset
                    )
        # Then a log with a new second on every line, from the first
        # stamp's date.  Up to 5,001 distinct stamps is more than the memo
        # holds, so a long run parses across a clear of the memo.
        y, mo, d, hh, mm, ss, sign, zh, zm, spaces = stamps[0]
        if not ZONE_MIN_S <= (zh * 3600 + zm * 60) * (
                1 if sign == "+" else -1) <= ZONE_MAX_S:
            # The run needs a zone that parses: the extreme one of its sign.
            zh, zm = (14 if sign == "+" else 12), 0
        start = calendar.timegm((min(y, 9998), mo, min(d, 28), hh, mm, 0))
        zone = f"{sign}{zh:02d}{zm:02d}"
        offset = (zh * 3600 + zm * 60) * (1 if sign == "+" else -1)
        for t in range(start, start + run + 1):
            line = f'h - - [{_stamp(t, zone, spaces)}] "GET /x" 200 1'
            assert parse_line(line).timestamp == t - offset
        assert len(clf._STAMP_EPOCH) <= clf._MEMO_MAX


class TestRoundTrip:
    def test_sample_roundtrip(self):
        rec = parse_line(SAMPLE)
        again = parse_line(format_line(rec))
        assert again == rec

    host_st = st.from_regex(r"[a-z0-9.\-]{1,20}", fullmatch=True)
    path_st = st.from_regex(r"/[A-Za-z0-9_.\-/]{0,40}", fullmatch=True)

    @given(
        host=host_st,
        path=path_st,
        ts=st.integers(min_value=0, max_value=4_000_000_000),
        status=st.integers(min_value=100, max_value=599),
        size=st.integers(min_value=0, max_value=10**9),
        method=st.sampled_from(["GET", "POST", "HEAD"]),
        proto=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
    )
    def test_property_roundtrip(self, host, path, ts, status, size, method, proto):
        rec = LogRecord(
            host=host, timestamp=float(ts), method=method, path=path,
            protocol=proto, status=status, size=size,
        )
        assert parse_line(format_line(rec)) == rec


class TestStreams:
    def test_parse_lines_skips_blanks(self):
        lines = [SAMPLE, "", "   ", SAMPLE]
        assert len(list(parse_lines(lines))) == 2

    def test_parse_lines_strict_raises(self):
        with pytest.raises(CLFParseError):
            list(parse_lines([SAMPLE, "garbage"]))

    def test_parse_lines_lenient_drops(self):
        recs = list(parse_lines([SAMPLE, "garbage", SAMPLE], strict=False))
        assert len(recs) == 2

    def test_lenient_drops_every_malformed_line(self):
        bad = [line for line in MALFORMED if line]
        stats = ParseStats()
        recs = list(parse_lines([SAMPLE, *bad, SAMPLE], strict=False,
                                stats=stats))
        assert len(recs) == 2
        assert stats.dropped == len(bad)
        assert stats.samples == bad[:ParseStats.MAX_SAMPLES]

    def test_write_then_read(self):
        recs = [parse_line(SAMPLE)] * 3
        buf = io.StringIO()
        assert write_log(buf, recs) == 3
        buf.seek(0)
        assert list(parse_lines(buf)) == recs


class TestParseStats:
    """Lenient parsing must account for every line, parsed or not."""

    def test_counts_all_lines(self):
        stats = ParseStats()
        lines = [SAMPLE, "", "garbage", "  ", SAMPLE, "more garbage"]
        recs = list(parse_lines(lines, strict=False, stats=stats))
        assert len(recs) == 2
        assert stats.total == 4          # non-blank lines
        assert stats.parsed == 2
        assert stats.blank == 2
        assert stats.dropped == 2
        assert stats.drop_fraction == 0.5

    def test_samples_capped(self):
        stats = ParseStats()
        bad = [f"junk line {i}" for i in range(20)]
        list(parse_lines(bad, strict=False, stats=stats))
        assert stats.dropped == 20
        assert len(stats.samples) == ParseStats.MAX_SAMPLES
        assert stats.samples[0] == "junk line 0"

    def test_on_drop_callback(self):
        seen = []
        list(parse_lines([SAMPLE, "oops"], strict=False,
                         on_drop=lambda line, exc: seen.append(line)))
        assert seen == ["oops"]

    def test_summary_mentions_drops(self):
        stats = ParseStats()
        list(parse_lines([SAMPLE, "zzz"], strict=False, stats=stats))
        s = stats.summary()
        assert "1 lines parsed" in s and "dropped" in s and "zzz" in s

    def test_clean_log_summary(self):
        stats = ParseStats()
        list(parse_lines([SAMPLE], strict=False, stats=stats))
        assert stats.summary() == "1 lines parsed, 0 dropped"

    def test_read_log_threads_stats(self):
        stats = ParseStats()
        buf = io.StringIO(SAMPLE + "\nnot clf\n")
        recs = list(parse_lines(buf, strict=False, stats=stats))
        assert len(recs) == 1
        assert stats.dropped == 1

    def test_strict_mode_still_raises(self):
        stats = ParseStats()
        with pytest.raises(CLFParseError):
            list(parse_lines(["bad"], stats=stats))


class TestQuotedFieldRoundTrip:
    """Referer/agent values with quotes, backslashes and control
    characters must survive format -> parse exactly."""

    def mk(self, referer=None, agent=None):
        return LogRecord(host="h", timestamp=0.0, method="GET", path="/x",
                         protocol="HTTP/1.1", status=200, size=1,
                         referer=referer, agent=agent)

    @pytest.mark.parametrize("value", [
        'Mozilla/5.0 "compatible"',
        "back\\slash",
        "tab\there",
        "new\nline",
        "cr\rhere",
        "ctrl\x01char",
        "-",          # literal dash, distinct from missing
        "",           # empty string, distinct from missing
        'mix "q" \\ \t\n\x02 end',
    ])
    def test_adversarial_roundtrip(self, value):
        rec = self.mk(referer=value, agent=value)
        again = parse_line(format_line(rec))
        assert again.referer == value
        assert again.agent == value

    def test_empty_referer_not_none(self):
        again = parse_line(format_line(self.mk(referer="")))
        assert again.referer == ""

    def test_missing_referer_stays_none(self):
        again = parse_line(format_line(self.mk()))
        assert again.referer is None
        assert again.agent is None

    quoted_st = st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=0x7F),
        max_size=40,
    )

    @given(referer=quoted_st, agent=quoted_st)
    def test_property_roundtrip(self, referer, agent):
        rec = self.mk(referer=referer, agent=agent)
        again = parse_line(format_line(rec))
        assert again.referer == referer
        assert again.agent == agent

    def test_formatted_line_single_line(self):
        line = format_line(self.mk(referer="a\nb", agent='c"d'))
        assert "\n" not in line
        assert len(line.splitlines()) == 1


class TestRejectOnWrite:
    """Bare CLF fields cannot be escaped; corrupting values must be
    rejected at write time instead of emitting an unparseable line."""

    def mk(self, **kw):
        base = dict(host="h", timestamp=0.0, method="GET", path="/x",
                    protocol="HTTP/1.1", status=200, size=1)
        base.update(kw)
        return LogRecord(**base)

    @pytest.mark.parametrize("field,value", [
        ("host", "a b"),
        ("host", 'a"b'),
        ("host", ""),
        ("path", "/a b"),
        ("path", "/a\nb"),
        ("method", "G T"),
        ("ident", "x y"),
        ("authuser", "x\ty"),
        ("protocol", 'HTTP/1.1"'),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            format_line(self.mk(**{field: value}))

    def test_good_record_still_formats(self):
        assert parse_line(format_line(self.mk())) == self.mk()


class TestStreamingSources:
    def recs(self, n=3):
        return [parse_line(SAMPLE)] * n

    def test_iter_log_lazy(self, tmp_path):
        p = tmp_path / "a.log"
        with p.open("w") as fp:
            write_log(fp, self.recs(3))
        it = iter_log(p)
        assert next(it) == parse_line(SAMPLE)
        assert len(list(it)) == 2

    def test_iter_log_gzip(self, tmp_path):
        p = tmp_path / "a.log.gz"
        buf = io.StringIO()
        write_log(buf, self.recs(2))
        with gzip.open(p, "wt") as fp:
            fp.write(buf.getvalue())
        assert len(list(iter_log(p))) == 2

    def test_clf_source_reiterable(self, tmp_path):
        p = tmp_path / "a.log"
        with p.open("w") as fp:
            write_log(fp, self.recs(3))
        p.open("a").write("garbage\n")
        src = CLFSource(p)
        first = list(src)
        second = list(src)
        assert first == second == self.recs(3)
        # stats describe the latest pass, not the sum of passes
        assert src.stats.parsed == 3
        assert src.stats.dropped == 1


class TestCombinedAgent:
    def test_referer_and_agent(self):
        rec = parse_line(SAMPLE + ' "http://ref/" "Mozilla/5.0 (X11)"')
        assert rec.referer == "http://ref/"
        assert rec.agent == "Mozilla/5.0 (X11)"

    def test_agent_with_dash_referer(self):
        rec = parse_line(SAMPLE + ' "-" "curl/8"')
        assert rec.referer is None
        assert rec.agent == "curl/8"

    def test_agent_roundtrip(self):
        rec = parse_line(SAMPLE + ' "-" "curl/8"')
        assert parse_line(format_line(rec)) == rec

    def test_plain_clf_has_no_agent(self):
        assert parse_line(SAMPLE).agent is None


class TestSharedValues:
    """Equal values parse to one object, so a loaded log holds one string
    per distinct path instead of one per line."""

    FIELDS = ("host", "method", "path", "protocol", "status", "size",
              "referer", "agent")

    @staticmethod
    def lines(n_hosts, n_paths, n):
        return [
            f'10.0.0.{i % n_hosts} - - [10/Oct/2000:13:55:{i % 60:02d} '
            f'+0000] "GET /p/{i % n_paths}.html HTTP/1.1" '
            f'{(200, 404)[i % 2]} {1000 + i % n_paths} '
            f'"http://ref/{i % 3}\\"q\\"" "agent {i % 2}"'
            for i in range(n)
        ]

    def test_equal_values_are_one_object(self):
        # A memo cleared mid-pass would hand out a second copy.
        clf._SHARED_STR.clear()
        clf._SHARED_NUM.clear()
        records = list(parse_lines(self.lines(5, 7, 200)))
        for name in self.FIELDS:
            values = [getattr(r, name) for r in records]
            first = {}
            for value in values:
                assert first.setdefault(value, value) is value, name
            assert len(first) < len(values)  # the field repeats
        assert records[1].status == 404 and records[0].size > 256
        assert records[0].referer == 'http://ref/0"q"'

    def test_values_survive_a_full_memo(self, monkeypatch):
        from repro.logs import records
        monkeypatch.setattr(records, "SHARED_MAX", 4)
        parsed = list(parse_lines(self.lines(9, 11, 60)))
        assert len(clf._SHARED_STR) <= 4 and len(clf._SHARED_NUM) <= 4
        for i, rec in enumerate(parsed):
            assert rec == LogRecord(
                f"10.0.0.{i % 9}",
                calendar.timegm((2000, 10, 10, 13, 55, i % 60)), "GET",
                f"/p/{i % 11}.html", "HTTP/1.1", (200, 404)[i % 2],
                1000 + i % 11, referer=f'http://ref/{i % 3}"q"',
                agent=f"agent {i % 2}",
            )

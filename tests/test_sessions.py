"""Tests for session reconstruction and trace building."""

import pytest
from hypothesis import given, strategies as st

from repro.logs import (
    LogRecord,
    StreamSessionizer,
    iter_sessions,
    looks_embedded,
    page_sequences,
    sessionize,
    trace_from_records,
)


def rec(host, t, path, status=200, size=100):
    return LogRecord(host=host, timestamp=float(t), method="GET", path=path,
                     protocol="HTTP/1.1", status=status, size=size)


class TestLooksEmbedded:
    @pytest.mark.parametrize("path", [
        "/a/x.gif", "/a/x.JPG", "/s.css", "/j.js", "/v.mpg", "/a.class",
    ])
    def test_embedded(self, path):
        assert looks_embedded(path)

    @pytest.mark.parametrize("path", [
        "/index.html", "/page", "/a/b.htm", "/cgi/query.cgi", "/",
    ])
    def test_not_embedded(self, path):
        assert not looks_embedded(path)


class TestSessionize:
    def test_single_session(self):
        recs = [rec("h", i, f"/p{i}.html") for i in range(3)]
        (s,) = sessionize(recs)
        assert s.client == "h"
        assert s.paths() == ["/p0.html", "/p1.html", "/p2.html"]
        assert s.duration == 2.0

    def test_timeout_splits(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 100, "/b.html")]
        assert len(sessionize(recs, timeout=50)) == 2
        assert len(sessionize(recs, timeout=150)) == 1

    def test_boundary_gap_equal_timeout_stays(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 50, "/b.html")]
        assert len(sessionize(recs, timeout=50)) == 1

    def test_clients_separated(self):
        recs = [rec("h1", 0, "/a.html"), rec("h2", 1, "/b.html")]
        ss = sessionize(recs)
        assert {s.client for s in ss} == {"h1", "h2"}

    def test_unsorted_input_sorted_per_client(self):
        recs = [rec("h", 5, "/b.html"), rec("h", 1, "/a.html")]
        (s,) = sessionize(recs)
        assert s.paths() == ["/a.html", "/b.html"]

    def test_failures_filtered(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 1, "/nope.html", status=404)]
        (s,) = sessionize(recs)
        assert s.paths() == ["/a.html"]
        (s2,) = sessionize(recs, successful_only=False)
        assert len(s2) == 2

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            sessionize([], timeout=0)

    def test_sessions_sorted_by_start(self):
        recs = [rec("b", 10, "/x.html"), rec("a", 0, "/y.html")]
        ss = sessionize(recs)
        assert [s.client for s in ss] == ["a", "b"]

    @given(st.lists(
        st.tuples(st.sampled_from(["u1", "u2", "u3"]),
                  st.floats(min_value=0, max_value=1e5, allow_nan=False)),
        min_size=1, max_size=60))
    def test_property_partition(self, pairs):
        recs = [rec(h, t, "/p.html") for h, t in pairs]
        ss = sessionize(recs, timeout=500.0)
        # Every record lands in exactly one session.
        assert sum(len(s) for s in ss) == len(recs)
        for s in ss:
            times = [r.timestamp for r in s.records]
            assert times == sorted(times)
            assert all(b - a <= 500.0 for a, b in zip(times, times[1:]))


def _key(s):
    return (s.start, s.client)


def _as_tuples(sessions):
    # Same-client sessions cannot share a start (splits need a positive
    # gap), so (client, start) orders deterministically on both paths.
    return sorted(((s.client, s.records) for s in sessions),
                  key=lambda cs: (cs[0], cs[1][0].timestamp))


class TestStreamSessionizer:
    def test_retires_after_timeout(self):
        sz = StreamSessionizer(timeout=50)
        assert sz.feed(rec("h", 0, "/a.html")) == []
        retired = sz.feed(rec("h", 100, "/b.html"))
        assert len(retired) == 1
        assert retired[0].paths() == ["/a.html"]
        assert len(sz) == 1  # the /b.html session is still open
        (last,) = sz.flush()
        assert last.paths() == ["/b.html"]
        assert sz.sessions_emitted == 2

    def test_gap_equal_timeout_stays_open(self):
        # Strictly-greater split rule, same as batch sessionize.
        sz = StreamSessionizer(timeout=50)
        sz.feed(rec("h", 0, "/a.html"))
        assert sz.feed(rec("h", 50, "/b.html")) == []
        (s,) = sz.flush()
        assert s.paths() == ["/a.html", "/b.html"]

    def test_foreign_record_triggers_retirement(self):
        sz = StreamSessionizer(timeout=50)
        sz.feed(rec("idle", 0, "/a.html"))
        retired = sz.feed(rec("busy", 200, "/b.html"))
        assert [s.client for s in retired] == ["idle"]

    def test_out_of_order_rejected(self):
        sz = StreamSessionizer()
        sz.feed(rec("h", 100, "/a.html"))
        with pytest.raises(ValueError, match="time order"):
            sz.feed(rec("h", 99, "/b.html"))

    def test_failures_filtered_but_advance_clock(self):
        sz = StreamSessionizer(timeout=50)
        sz.feed(rec("h", 0, "/a.html"))
        retired = sz.feed(rec("x", 200, "/nope.html", status=500))
        assert [s.client for s in retired] == ["h"]
        assert sz.flush() == []

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            StreamSessionizer(timeout=0)

    def test_peak_open_tracks_working_set(self):
        sz = StreamSessionizer(timeout=10)
        for i in range(5):
            sz.feed(rec(f"h{i}", i, "/p.html"))
        assert sz.peak_open == 5
        sz.feed(rec("late", 1000, "/p.html"))
        assert len(sz) == 1
        assert sz.peak_open == 5

    def test_retired_in_last_activity_then_client_order(self):
        # Ties on last activity come out by client name, not feed order.
        sz = StreamSessionizer(timeout=10)
        for client, t in [("b", 0), ("a", 0), ("c", 0), ("b", 1),
                          ("e", 1), ("d", 1)]:
            sz.feed(rec(client, t, "/p.html"))
        retired = sz.feed(rec("late", 100, "/p.html"))
        assert [s.client for s in retired] == ["a", "c", "b", "d", "e"]
        assert [s.end for s in retired] == [0, 0, 1, 1, 1]

    def test_flush_in_session_open_order(self):
        sz = StreamSessionizer(timeout=10)
        for client, t in [("b", 0), ("a", 1), ("c", 2), ("b", 3),
                          ("a", 4)]:
            sz.feed(rec(client, t, "/p.html"))
        # Last activity runs c, b, a; the sessions opened b, a, c.
        assert [s.client for s in sz.flush()] == ["b", "a", "c"]

    def test_flush_orders_a_reopened_session_by_its_reopening(self):
        sz = StreamSessionizer(timeout=10)
        sz.feed(rec("a", 0, "/p.html"))
        sz.feed(rec("b", 5, "/p.html"))
        (old,) = sz.feed(rec("a", 11, "/p.html"))  # a's first session
        assert (old.client, old.end) == ("a", 0)
        assert [s.client for s in sz.flush()] == ["b", "a"]

    def test_iter_sessions_generator(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 1000, "/b.html"),
                rec("g", 1001, "/c.html")]
        out = list(iter_sessions(recs, timeout=50))
        assert _as_tuples(out) == _as_tuples(sessionize(recs, timeout=50))

    # -- equivalence with the batch path ---------------------------------

    # A tiny timestamp universe forces equal-timestamp ties; the offsets
    # include gaps exactly equal to the timeout (10.0) on both sides of
    # the strictly-greater split rule.
    events_st = st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3"]),
            st.sampled_from([0.0, 1.0, 5.0, 9.5, 10.0, 10.5, 20.0, 21.0]),
            st.sampled_from([200, 200, 200, 404]),
        ),
        min_size=1, max_size=80,
    )

    @given(events=events_st)
    def test_property_stream_equals_batch(self, events):
        # Feed in stable time-sorted order (a log file's natural order);
        # batch sessionize sees the raw shuffled list.
        base = 1_000.0
        t = 0.0
        recs = []
        for i, (client, dt, status) in enumerate(events):
            t += dt
            recs.append(rec(client, base + t, f"/p{i}.html", status=status))
        import random
        shuffled = recs[:]
        random.Random(len(recs)).shuffle(shuffled)

        batch = sessionize(shuffled, timeout=10.0)
        # Stable time-sort of the same shuffled list: equal-timestamp
        # ties keep the order batch's per-client stable sort sees.
        sz = StreamSessionizer(timeout=10.0)
        streamed = []
        for r in sorted(shuffled, key=lambda r: r.timestamp):
            streamed.extend(sz.feed(r))
        streamed.extend(sz.flush())
        assert _as_tuples(streamed) == _as_tuples(batch)
        assert sz.sessions_emitted == len(batch)

    @given(events=events_st)
    def test_property_successful_only_off(self, events):
        base, t, recs = 1_000.0, 0.0, []
        for i, (client, dt, status) in enumerate(events):
            t += dt
            recs.append(rec(client, base + t, f"/p{i}.html", status=status))
        batch = sessionize(recs, timeout=10.0, successful_only=False)
        streamed = list(iter_sessions(recs, timeout=10.0,
                                      successful_only=False))
        assert _as_tuples(streamed) == _as_tuples(batch)


class TestPageSequences:
    def test_filters_embedded(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 1, "/a_img0.gif"),
                rec("h", 2, "/b.html")]
        (s,) = sessionize(recs)
        assert page_sequences([s]) == [["/a.html", "/b.html"]]

    def test_min_length(self):
        recs = [rec("h", 0, "/a.html")]
        ss = sessionize(recs)
        assert page_sequences(ss, min_length=2) == []


class TestTraceFromRecords:
    def test_embedded_tagged_with_parent(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 0.1, "/x.gif"),
                rec("h", 5, "/b.html"), rec("h", 5.1, "/y.gif")]
        trace = trace_from_records(recs)
        by_path = {r.path: r for r in trace}
        assert by_path["/x.gif"].is_embedded
        assert by_path["/x.gif"].parent == "/a.html"
        assert by_path["/y.gif"].parent == "/b.html"
        assert not by_path["/a.html"].is_embedded

    def test_one_connection_per_session(self):
        recs = [rec("h", 0, "/a.html"), rec("h", 10_000, "/b.html")]
        trace = trace_from_records(recs, timeout=100)
        assert len(trace.connection_counts()) == 2

    def test_zero_size_clamped(self):
        recs = [rec("h", 0, "/a.html", size=0)]
        trace = trace_from_records(recs)
        assert trace[0].size == 1

    def test_arrivals_sorted(self):
        recs = [rec("h2", 3, "/c.html"), rec("h1", 1, "/a.html"),
                rec("h1", 2, "/b.html")]
        trace = trace_from_records(recs)
        arr = [r.arrival for r in trace]
        assert arr == sorted(arr)

"""Tests for the core record/trace types."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.logs import LogRecord, Request, Trace


def req(t, conn=0, path="/a", size=100, **kw):
    return Request(arrival=t, conn_id=conn, path=path, size=size, **kw)


class TestLogRecord:
    def test_success_codes(self):
        base = dict(host="h", timestamp=0.0, method="GET", path="/",
                    protocol="HTTP/1.1")
        assert LogRecord(status=200, size=1, **base).is_success()
        assert LogRecord(status=304, size=0, **base).is_success()
        assert not LogRecord(status=404, size=0, **base).is_success()
        assert not LogRecord(status=500, size=0, **base).is_success()

    def test_with_time(self):
        base = LogRecord(host="h", timestamp=1.0, method="GET", path="/",
                         protocol="HTTP/1.1", status=200, size=1)
        shifted = base.with_time(9.0)
        assert shifted.timestamp == 9.0
        assert shifted.path == base.path


class TestRequest:
    def test_main_page(self):
        assert req(0.0).is_main_page()
        assert not req(0.0, is_embedded=True, parent="/a").is_main_page()


class TestTrace:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Trace([req(2.0), req(1.0)])

    def test_catalog_takes_max_size(self):
        t = Trace([req(0.0, path="/a", size=10), req(1.0, path="/a", size=30)])
        assert t.catalog["/a"] == 30
        assert t.total_bytes == 30

    def test_duration_and_len(self):
        t = Trace([req(1.0), req(4.0, conn=1, path="/b")])
        assert t.duration == 3.0
        assert len(t) == 2
        assert t[1].path == "/b"

    def test_empty_trace(self):
        t = Trace([])
        assert t.duration == 0.0
        assert len(t) == 0
        assert t.total_bytes == 0

    def test_head(self):
        t = Trace([req(float(i), conn=i) for i in range(10)])
        assert len(t.head(3)) == 3

    @pytest.mark.parametrize("bad,match", [
        (req(math.nan), "not finite"),
        (req(math.inf), "not finite"),
        (req(-math.inf), "not finite"),
        (req(1.0, size=0), "size must be positive"),
        (req(1.0, size=-5000), "size must be positive"),
    ])
    def test_rejects_unreplayable_request(self, bad, match):
        # Every replay input passes TraceSummary.scan, so a request the
        # simulator cannot replay fails at construction, not mid-run.
        with pytest.raises(ValueError, match=match):
            Trace([bad])

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_sorted_arrivals_accepted(self, times):
        times.sort()
        t = Trace([req(x, conn=i) for i, x in enumerate(times)])
        assert t.duration == pytest.approx(times[-1] - times[0])

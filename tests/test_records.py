"""Tests for the core record/trace types."""

import dataclasses
import inspect
import math
import pickle

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


RECORDS = [
    LogRecord("h", 1.0, "GET", "/a", "HTTP/1.1", 200, 5, "id", "user",
              "http://ref/", "agent"),
    Request(1.5, 3, "/a.gif", 10, True, "/a.html", "h", True),
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=lambda r: type(r).__name__)
class TestHandWrittenInit:
    """Both records build through a hand-written ``__init__``; it must be
    indistinguishable from the one ``@dataclass`` would generate."""

    def test_signature_matches_fields(self, record):
        params = list(inspect.signature(type(record)).parameters.values())
        fields = dataclasses.fields(record)
        assert [p.name for p in params] == [f.name for f in fields]
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING
            else f.default for f in fields
        ]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    def test_every_field_stored(self, record):
        values = dataclasses.astuple(record)
        names = [f.name for f in dataclasses.fields(record)]
        assert dataclasses.astuple(type(record)(*values)) == values
        assert type(record)(**dict(zip(names, values))) == record

    def test_frozen(self, record):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))

    def test_equal_and_hash_like_replace_twin(self, record):
        twin = dataclasses.replace(record)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
        other = dataclasses.replace(record, path="/elsewhere")
        assert other != record

    def test_pickle_round_trip(self, record):
        again = pickle.loads(pickle.dumps(record))
        assert again == record and hash(again) == hash(record)


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

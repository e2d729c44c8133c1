"""Tests for bundle mining."""

import pytest

from repro.logs import LogRecord
from repro.mining import BundleMiner, BundleTable


def rec(host, t, path):
    return LogRecord(host=host, timestamp=float(t), method="GET", path=path,
                     protocol="HTTP/1.1", status=200, size=100)


def visit(host, t0, page, objects=()):
    """One page view: main page then its embedded objects 100 ms apart."""
    out = [rec(host, t0, page)]
    for i, obj in enumerate(objects):
        out.append(rec(host, t0 + 0.1 * (i + 1), obj))
    return out


class TestBundleTable:
    def test_lookups(self):
        t = BundleTable({"/a.html": ("/x.gif", "/y.gif"), "/b.html": ()})
        assert t.objects_of("/a.html") == ("/x.gif", "/y.gif")
        assert t.objects_of("/nope.html") == ()
        assert t.owner_of("/x.gif") == "/a.html"
        assert t.owner_of("/zzz.gif") is None
        assert t.is_embedded_object("/y.gif")
        assert not t.is_embedded_object("/a.html")
        assert "/a.html" in t
        assert len(t) == 2
        assert set(t.as_dict()) == {"/a.html", "/b.html"}

    def test_as_dict_copy(self):
        t = BundleTable({"/a.html": ("/x.gif",)})
        d = t.as_dict()
        d["/a.html"] = ()
        assert t.objects_of("/a.html") == ("/x.gif",)


class TestBundleMinerValidation:
    @pytest.mark.parametrize("kw", [
        {"attach_window": 0},
        {"min_confidence": 0.0},
        {"min_confidence": 1.5},
        {"min_page_views": 0},
    ])
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            BundleMiner(**kw)


class TestBundleMining:
    def test_simple_bundle(self):
        recs = []
        for i in range(3):
            recs += visit(f"u{i}", i * 100, "/a.html", ["/x.gif", "/y.gif"])
        table = BundleMiner().mine(recs)
        assert set(table.objects_of("/a.html")) == {"/x.gif", "/y.gif"}

    def test_incidental_object_filtered(self):
        recs = []
        for i in range(10):
            objs = ["/x.gif"] + (["/rare.gif"] if i == 0 else [])
            recs += visit(f"u{i}", i * 100, "/a.html", objs)
        table = BundleMiner(min_confidence=0.3).mine(recs)
        assert "/x.gif" in table.objects_of("/a.html")
        assert "/rare.gif" not in table.objects_of("/a.html")

    def test_object_attributed_to_strongest_page(self):
        recs = []
        for i in range(5):
            recs += visit(f"a{i}", i * 100, "/a.html", ["/shared.gif"])
        recs += visit("b0", 10_000, "/b.html", ["/shared.gif"])
        recs += visit("b1", 10_100, "/b.html", [])
        table = BundleMiner().mine(recs)
        assert table.owner_of("/shared.gif") == "/a.html"
        assert "/shared.gif" not in table.objects_of("/b.html")

    def test_window_excludes_late_objects(self):
        recs = []
        for i in range(3):
            recs += [rec(f"u{i}", i * 100, "/a.html"),
                     rec(f"u{i}", i * 100 + 60, "/late.gif")]
        table = BundleMiner(attach_window=30).mine(recs)
        assert "/late.gif" not in table.objects_of("/a.html")

    def test_min_page_views_guard(self):
        recs = visit("u0", 0, "/once.html", ["/x.gif"])
        assert "/once.html" not in BundleMiner(min_page_views=2).mine(recs)
        assert "/once.html" in BundleMiner(min_page_views=1,
                                           min_confidence=0.5).mine(recs)

    def test_objects_between_pages_attach_to_latest(self):
        recs = (visit("u0", 0, "/a.html", ["/i.gif"])
                + visit("u0", 10, "/b.html", ["/j.gif"]))
        recs = recs * 2  # two users' worth via same session is fine
        table = BundleMiner(min_page_views=1).mine(recs)
        assert table.owner_of("/i.gif") == "/a.html"
        assert table.owner_of("/j.gif") == "/b.html"

    def test_duplicate_object_in_view_counted_once(self):
        recs = []
        for i in range(2):
            recs += [rec(f"u{i}", i * 100, "/a.html"),
                     rec(f"u{i}", i * 100 + 0.1, "/x.gif"),
                     rec(f"u{i}", i * 100 + 0.2, "/x.gif")]
        table = BundleMiner(min_confidence=1.0).mine(recs)
        # Confidence must be computed as 2 attachments / 2 views = 1.0,
        # not 4/2; presence under min_confidence=1.0 proves de-duplication.
        assert table.objects_of("/a.html") == ("/x.gif",)

    def test_empty_log(self):
        assert len(BundleMiner().mine([])) == 0

    def test_recovers_site_ground_truth(self):
        from repro.logs import synthetic_workload
        w = synthetic_workload(scale=0.1)
        table = BundleMiner(min_confidence=0.25).mine(w.training_records)
        truth = w.site.bundles()
        checked = 0
        wrong = 0
        for page, objects in table.as_dict().items():
            for obj in objects:
                checked += 1
                if obj not in truth.get(page, ()):
                    wrong += 1
        assert checked > 50
        assert wrong / checked < 0.05, "mined bundles should match site truth"

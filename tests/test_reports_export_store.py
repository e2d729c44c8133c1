"""Tests for usage reports, DOT export, and workload persistence."""

import json

import pytest

from repro.logs import (
    LogRecord,
    SiteSpec,
    build_site,
    load_site,
    load_workload,
    save_site,
    save_workload,
    site_from_dict,
    site_to_dict,
    synthetic_workload,
)
from repro.mining import BundleTable, DependencyGraph, analyze_log
from repro.mining.export import bundle_table_to_dot, depgraph_to_dot


def _set_field(row_index, key, value):
    """A corruption that rewrites one field of one sidecar data row."""
    def corrupt(p):
        lines = p.read_text().splitlines(keepends=True)
        row = json.loads(lines[row_index])
        row[key] = value
        lines[row_index] = json.dumps(row) + "\n"
        p.write_text("".join(lines))
    return corrupt


#: Sidecar defects a load must reject (and fall back from) before
#: replay: the last five decode cleanly but cannot be replayed.
CORRUPT_SIDECARS = [
    lambda p: p.write_text('{"kind": "something-else"}\n'),
    lambda p: p.write_text("not json at all\n"),
    lambda p: p.write_text(""),
    # Truncation: drop the last data row, keep the header count.
    lambda p: p.write_text(
        "".join(p.read_text().splitlines(keepends=True)[:-1])),
    pytest.param(_set_field(1, "a", float("nan")), id="nan-first-arrival"),
    pytest.param(_set_field(-1, "a", float("inf")), id="inf-last-arrival"),
    pytest.param(_set_field(-1, "a", float("nan")), id="nan-last-arrival"),
    pytest.param(_set_field(1, "s", 0), id="zero-size"),
    pytest.param(_set_field(-1, "s", -5000), id="negative-size"),
]


def rec(host, t, path, status=200, size=100):
    return LogRecord(host=host, timestamp=float(t), method="GET", path=path,
                     protocol="HTTP/1.1", status=status, size=size)


class TestAnalyzeLog:
    def make_log(self):
        recs = []
        for u in range(3):
            base = u * 10_000
            recs += [
                rec(f"u{u}", base, "/news/index.html"),
                rec(f"u{u}", base + 1, "/news/img.gif"),
                rec(f"u{u}", base + 30, "/sports/page.html"),
                rec(f"u{u}", base + 60, "/search?q=x"),
            ]
        recs.append(rec("u0", 100, "/missing.html", status=404))
        return recs

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            analyze_log([])

    def test_counts(self):
        report = analyze_log(self.make_log())
        assert report.requests == 13
        assert report.distinct_clients == 3
        assert report.sessions == 3
        assert report.error_fraction == pytest.approx(1 / 13)
        assert report.embedded_fraction == pytest.approx(3 / 13)
        assert report.dynamic_fraction == pytest.approx(3 / 13)

    def test_entries_and_exits(self):
        report = analyze_log(self.make_log())
        assert report.top_entry_pages[0][0] == "/news/index.html"
        # u0's 404 at t=100 merges into its session; exits still end on
        # the last successful page of each session.
        exits = dict(report.top_exit_pages)
        assert "/search?q=x" in exits

    def test_section_share_sums_to_one(self):
        report = analyze_log(self.make_log())
        assert sum(s for _, s in report.section_share) == pytest.approx(1.0)

    def test_hourly_histogram(self):
        report = analyze_log(self.make_log())
        assert len(report.hourly_requests) == 24
        assert sum(report.hourly_requests) == report.requests
        assert 0 <= report.peak_hour < 24

    def test_format_is_readable(self):
        text = analyze_log(self.make_log()).format()
        assert "Site usage report" in text
        assert "top pages:" in text
        assert "traffic by section:" in text

    def test_on_synthetic_workload(self):
        w = synthetic_workload(scale=0.02)
        report = analyze_log(w.training_records)
        assert report.sessions > 10
        assert 0.5 < report.embedded_fraction < 0.9


class TestDotExport:
    def graph(self):
        g = DependencyGraph(order=2)
        for _ in range(8):
            g.add_sequence(["/a", "/b", "/c"])
        g.add_sequence(["/a", "/d"])
        return g

    def test_depgraph_dot_structure(self):
        dot = depgraph_to_dot(self.graph(), min_confidence=0.0)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"/a" -> "/b"' in dot
        assert 'label="89%"' in dot  # 8/9 a->b

    def test_min_confidence_filters_edges(self):
        dot = depgraph_to_dot(self.graph(), min_confidence=0.5)
        assert '"/a" -> "/d"' not in dot

    def test_max_nodes_caps(self):
        g = DependencyGraph()
        for i in range(30):
            g.add_sequence([f"/p{i}", f"/p{i+1}"])
        dot = depgraph_to_dot(g, max_nodes=5)
        node_lines = [l for l in dot.splitlines()
                      if l.strip().endswith(";") and "->" not in l
                      and "node [" not in l and "label=" not in l
                      and "rankdir" not in l]
        assert len(node_lines) <= 5

    def test_quoting(self):
        g = DependencyGraph()
        g.add_sequence(['/a"b', "/c"])
        dot = depgraph_to_dot(g, min_confidence=0.0)
        assert '\\"' in dot

    def test_validation(self):
        with pytest.raises(ValueError):
            depgraph_to_dot(self.graph(), min_confidence=2.0)
        with pytest.raises(ValueError):
            depgraph_to_dot(self.graph(), max_nodes=0)
        with pytest.raises(ValueError):
            bundle_table_to_dot(BundleTable({}), max_pages=0)

    def test_bundle_dot(self):
        table = BundleTable({"/p.html": ("/a.gif", "/b.gif")})
        dot = bundle_table_to_dot(table)
        assert '"/p.html" -> "/a.gif"' in dot
        assert "shape=ellipse" in dot


class TestSiteRoundTrip:
    def test_dict_roundtrip(self):
        site = build_site(SiteSpec(categories=("x", "y"),
                                   pages_per_category=8,
                                   dynamic_fraction=0.2, seed=3))
        again = site_from_dict(site_to_dict(site))
        assert again.object_sizes() == site.object_sizes()
        assert again.bundles() == site.bundles()
        assert [c.name for c in again.categories] == \
            [c.name for c in site.categories]
        assert {p.path for p in again.pages.values() if p.dynamic} == \
            {p.path for p in site.pages.values() if p.dynamic}

    def test_version_check(self):
        with pytest.raises(ValueError, match="format version"):
            site_from_dict({"format_version": 99, "pages": []})

    def test_file_roundtrip(self, tmp_path):
        site = build_site(SiteSpec(categories=("x",), pages_per_category=5))
        save_site(site, tmp_path / "site.json")
        again = load_site(tmp_path / "site.json")
        assert again.object_sizes() == site.object_sizes()
        # The file is real JSON.
        json.loads((tmp_path / "site.json").read_text())


class TestWorkloadRoundTrip:
    def test_save_load(self, tmp_path):
        w = synthetic_workload(scale=0.02)
        out = save_workload(w, tmp_path / "wl")
        assert (out / "site.json").exists()
        assert (out / "training.log").exists()
        assert (out / "access.log").exists()
        again = load_workload(out)
        assert again.site.object_sizes() == w.site.object_sizes()
        assert len(again.training_records) == len(w.training_records)
        # CLF truncates to whole seconds, so counts (not times) match.
        assert len(again.trace) == len(w.trace)
        assert set(again.trace.catalog) == set(w.trace.catalog)

    def test_loaded_workload_simulates(self, tmp_path):
        from repro.core import SimulationParams, run_policy
        w = synthetic_workload(scale=0.02)
        again = load_workload(save_workload(w, tmp_path / "wl"))
        result = run_policy(again, "lard", SimulationParams(n_backends=2),
                            cache_fraction=0.3)
        assert result.report.completed > 100

    def test_missing_eval_rejected(self, tmp_path):
        w = synthetic_workload(scale=0.02)
        out = save_workload(w, tmp_path / "wl")
        (out / "access.log").write_text("")
        # The sidecar alone can rebuild the trace; only with both gone
        # is the workload actually unusable.
        (out / "trace.meta.jsonl").unlink()
        with pytest.raises(ValueError, match="no evaluation records"):
            load_workload(out)


class TestTraceSidecar:
    """`trace.meta.jsonl` makes save->load faithful where CLF cannot be."""

    def make_workload(self):
        return synthetic_workload(scale=0.02)

    def test_exact_trace_roundtrip(self, tmp_path):
        w = self.make_workload()
        again = load_workload(save_workload(w, tmp_path / "wl"))
        assert len(again.trace) == len(w.trace)
        for a, b in zip(w.trace, again.trace):
            # Exact sub-second arrivals, not CLF's whole seconds.
            assert b.arrival == a.arrival
            assert (b.conn_id, b.path, b.size) == (a.conn_id, a.path, a.size)
            assert (b.is_embedded, b.dynamic) == (a.is_embedded, a.dynamic)
            assert (b.parent, b.client) == (a.parent, a.client)

    def test_absent_sidecar_falls_back_to_heuristics(self, tmp_path):
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        (out / "trace.meta.jsonl").unlink()
        again = load_workload(out)
        assert len(again.trace) == len(w.trace)
        # CLF keeps whole seconds only, so some arrivals must move.
        assert any(b.arrival != a.arrival
                   for a, b in zip(w.trace, again.trace))

    @pytest.mark.parametrize("corrupt", CORRUPT_SIDECARS)
    def test_corrupt_sidecar_warns_and_falls_back(self, tmp_path, caplog,
                                                  corrupt):
        import logging
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        corrupt(out / "trace.meta.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
            again = load_workload(out)
        assert "unusable trace sidecar" in caplog.text
        assert len(again.trace) == len(w.trace)

    def test_stale_sidecar_count_detected(self, tmp_path):
        # The header count guards against the sidecar drifting out of
        # sync with access.log (e.g. partial rewrite).
        from repro.logs.replay import read_sidecar
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        p = out / "trace.meta.jsonl"
        p.write_text("".join(p.read_text().splitlines(keepends=True)[:-2]))
        with pytest.raises(ValueError, match="truncated"):
            list(read_sidecar(p))

    def test_sidecar_bytes_pinned(self, tmp_path):
        # The bytes are a contract: saved workloads from older versions
        # must stay loadable, and benchmarks hash the saved inputs.
        from repro.logs import Request, Trace, Website, Workload
        trace = Trace([
            Request(0.5, 7, "/a.html", 1200, client="h1"),
            Request(0.625, 7, "/a.gif", 300, is_embedded=True,
                    parent="/a.html", client="h1"),
            Request(2.0, 9, "/cgi/q", 512, dynamic=True),
        ], name="t")
        out = save_workload(Workload("w", Website([]), [], trace),
                            tmp_path / "wl")
        assert (out / "trace.meta.jsonl").read_text() == (
            '{"format_version": 1, "kind": "prord-trace-meta", '
            '"name": "t", "n": 3}\n'
            '{"a": 0.5, "c": 7, "p": "/a.html", "s": 1200, "e": false, '
            '"d": false, "pa": null, "cl": "h1"}\n'
            '{"a": 0.625, "c": 7, "p": "/a.gif", "s": 300, "e": true, '
            '"d": false, "pa": "/a.html", "cl": "h1"}\n'
            '{"a": 2.0, "c": 9, "p": "/cgi/q", "s": 512, "e": false, '
            '"d": true, "pa": null, "cl": "-"}\n'
        )


class TestStreamedTraceSidecar:
    """``stream=True`` degraded paths: a broken sidecar must WARN and
    fall back to a materialized heuristic trace, never crash the load."""

    def make_workload(self):
        return synthetic_workload(scale=0.02)

    def test_streamed_load_uses_sidecar_source(self, tmp_path, caplog):
        import logging
        from repro.logs import SidecarRequestSource
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
            again = load_workload(out, stream=True)
        assert caplog.text == ""
        assert isinstance(again.trace, SidecarRequestSource)
        assert list(again.trace) == list(w.trace)

    def test_absent_sidecar_warns_and_materializes(self, tmp_path, caplog):
        import logging
        from repro.logs import Trace
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        (out / "trace.meta.jsonl").unlink()
        with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
            again = load_workload(out, stream=True)
        assert "streamed evaluation requires the trace sidecar" in caplog.text
        assert isinstance(again.trace, Trace)
        assert len(again.trace) == len(w.trace)

    @pytest.mark.parametrize("corrupt", CORRUPT_SIDECARS)
    def test_corrupt_sidecar_warns_and_falls_back(self, tmp_path, caplog,
                                                  corrupt):
        import logging
        from repro.logs import Trace
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        corrupt(out / "trace.meta.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
            again = load_workload(out, stream=True)
        assert "unusable trace sidecar" in caplog.text
        assert isinstance(again.trace, Trace)
        assert len(again.trace) == len(w.trace)

    def test_degraded_streamed_workload_still_replays(self, tmp_path):
        from repro.core.system import run_policy
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        (out / "trace.meta.jsonl").write_text("garbage\n")
        result = run_policy(load_workload(out, stream=True), "lard")
        assert result.report.all_completed == len(w.trace)

    def test_sampled_fallback_keeps_whole_clients(self, tmp_path):
        w = self.make_workload()
        out = save_workload(w, tmp_path / "wl")
        (out / "trace.meta.jsonl").unlink()
        again = load_workload(out, stream=True, sample_rate=0.5,
                              sample_seed=3)
        assert 0 < len(again.trace) < len(w.trace)


class TestDropAccounting:
    def test_malformed_training_lines_logged(self, tmp_path, caplog):
        import logging
        w = synthetic_workload(scale=0.02)
        out = save_workload(w, tmp_path / "wl")
        with (out / "training.log").open("a") as fp:
            fp.write("definitely not clf\n")
        with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
            again = load_workload(out)
        assert "malformed line(s) dropped" in caplog.text
        assert "definitely not clf" in caplog.text
        assert len(again.training_records) == len(w.training_records)

    def test_clean_load_is_quiet(self, tmp_path, caplog):
        import logging
        w = synthetic_workload(scale=0.02)
        out = save_workload(w, tmp_path / "wl")
        with caplog.at_level(logging.WARNING, logger="repro.logs.store"):
            load_workload(out)
        assert caplog.text == ""

    def test_undecodable_byte_loads_alike_with_and_without_stream(
            self, tmp_path):
        w = synthetic_workload(scale=0.02)
        out = save_workload(w, tmp_path / "wl")
        log = out / "training.log"
        lines = log.read_bytes().splitlines()
        lines[1] += b' "-" "caf\xe9"'  # a latin-1 user agent
        log.write_bytes(b"\n".join(lines) + b"\n")
        materialized = load_workload(out).training_records
        streamed = list(load_workload(out, stream=True).training_records)
        assert materialized == streamed
        assert len(materialized) == len(w.training_records)
        assert materialized[1].agent == "caf\ufffd"

    def test_stream_load_returns_source_with_stats(self, tmp_path):
        from repro.logs import CLFSource
        w = synthetic_workload(scale=0.02)
        out = save_workload(w, tmp_path / "wl")
        with (out / "training.log").open("a") as fp:
            fp.write("junk\n")
        again = load_workload(out, stream=True)
        src = again.training_records
        assert isinstance(src, CLFSource)
        n = sum(1 for _ in src)
        assert n == len(w.training_records)
        assert src.stats.dropped == 1
        assert src.stats.samples == ["junk"]

"""Tests for workload persistence: the site model, saved workloads, the
trace sidecar and dropped-line accounting.  (The file keeps its old name
so the kept tests keep their IDs.)"""

import json

import pytest

from repro.logs import (
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

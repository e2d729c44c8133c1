"""Tests for the dynamic-content extension (the paper's future work)."""

import math

import pytest

from repro.core import SimulationParams
from repro.logs import (
    Request,
    SiteSpec,
    Trace,
    TraceGenerator,
    TrafficSpec,
    build_site,
    looks_dynamic,
    trace_from_records,
    LogRecord,
)
from repro.policies import PRORDPolicy, WRRPolicy
from repro.sim import BackendServer, ClusterSimulator, Simulator


class TestLooksDynamic:
    @pytest.mark.parametrize("path", [
        "/a/query001.cgi", "/cgi-bin/search", "/page.php", "/x.jsp",
        "/find?q=web", "/a.ASP",
    ])
    def test_dynamic(self, path):
        assert looks_dynamic(path)

    @pytest.mark.parametrize("path", [
        "/index.html", "/img.gif", "/page", "/cginotes.html",
    ])
    def test_static(self, path):
        assert not looks_dynamic(path)


class TestSiteGeneration:
    def test_dynamic_fraction_validated(self):
        with pytest.raises(ValueError):
            build_site(SiteSpec(dynamic_fraction=1.0))

    def test_dynamic_pages_created(self):
        site = build_site(SiteSpec(categories=("a",), pages_per_category=50,
                                   dynamic_fraction=0.4, seed=1))
        dynamic = [p for p in site.pages.values() if p.dynamic]
        assert 5 < len(dynamic) < 40
        assert all(p.path.endswith(".cgi") for p in dynamic)
        assert all(not p.embedded for p in dynamic)

    def test_zero_fraction_default(self):
        site = build_site(SiteSpec(categories=("a",), pages_per_category=10))
        assert not any(p.dynamic for p in site.pages.values())

    def test_trace_requests_tagged(self):
        site = build_site(SiteSpec(categories=("a", "b"),
                                   pages_per_category=30,
                                   dynamic_fraction=0.3, seed=4))
        trace = TraceGenerator(site, TrafficSpec(num_requests=600,
                                                 seed=2)).generate()
        dynamic = [r for r in trace if r.dynamic]
        assert dynamic
        assert all(r.path.endswith(".cgi") for r in dynamic)
        assert all(not r.is_embedded for r in dynamic)


#: Cost fields that must be finite and > 0, and finite and >= 0.
_POSITIVE_COSTS = (
    "connection_latency_us", "disk_latency_fixed_ms", "handoff_us",
    "transmit_us_per_kb", "backend_cpu_us", "replication_interval_s",
)
_NON_NEGATIVE_COSTS = (
    "disk_us_per_kb", "frontend_parse_us", "dispatch_us",
    "dynamic_cpu_ms",
)


class TestServerDynamicPath:
    def test_dynamic_never_cached(self):
        sim = Simulator()
        params = SimulationParams(n_backends=1, cache_bytes=1 << 20)
        srv = BackendServer(sim, 0, params)
        hits = []
        for _ in range(3):
            srv.handle("/q.cgi", 4096, lambda sid, hit: hits.append(hit),
                       dynamic=True)
        sim.run()
        assert hits == [False, False, False]
        assert not srv.cache.peek("/q.cgi")
        assert srv.disk.jobs_served == 0
        assert srv.dynamic_served == 3

    def test_dynamic_costs_cpu(self):
        params = SimulationParams(n_backends=1, cache_bytes=1 << 20,
                                  dynamic_cpu_ms=5.0)
        sim = Simulator()
        srv = BackendServer(sim, 0, params)
        done_at = []
        srv.handle("/q.cgi", 1024, lambda sid, hit: done_at.append(sim.now),
                   dynamic=True)
        sim.run()
        expected = (params.backend_cpu_s + params.dynamic_cpu_s
                    + params.transmit_s(1024))
        assert done_at[0] == pytest.approx(expected)

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in _POSITIVE_COSTS + _NON_NEGATIVE_COSTS
        for value in (-1.0, math.nan, math.inf)
    ] + [(field, 0.0) for field in _POSITIVE_COSTS])
    def test_dynamic_cpu_param_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulationParams(**{field: value})

    @pytest.mark.parametrize("field", _NON_NEGATIVE_COSTS)
    def test_zero_cost_stays_legal(self, field):
        assert getattr(SimulationParams(**{field: 0.0}), field) == 0.0


class TestClusterDynamicRouting:
    def make_trace(self):
        reqs = []
        t = 0.0
        for conn in range(6):
            t += 0.01
            reqs.append(Request(arrival=t, conn_id=conn,
                                path="/a/page.html", size=2048))
            t += 0.01
            reqs.append(Request(arrival=t, conn_id=conn,
                                path="/a/q.cgi", size=2048, dynamic=True))
        return Trace(reqs, name="dyn")

    def test_prord_serves_dynamic_without_dispatch(self):
        params = SimulationParams(n_backends=4, cache_bytes=1 << 20)
        policy = PRORDPolicy()
        cluster = ClusterSimulator(self.make_trace(), policy, params,
                                   warmup_fraction=0.0)
        result = cluster.run()
        assert result.report.completed == 12
        # Dynamic requests never dispatch; only the first page does.
        assert result.report.dispatches == 1
        assert sum(s.dynamic_served for s in cluster.servers) == 6

    def test_dynamic_counts_as_miss(self):
        params = SimulationParams(n_backends=2, cache_bytes=1 << 20)
        cluster = ClusterSimulator(self.make_trace(), WRRPolicy(), params,
                                   warmup_fraction=0.0)
        cluster.run()
        dyn_recs = [r for r in cluster.metrics.records if not r.hit]
        assert len(dyn_recs) >= 6

    def test_raw_log_pipeline_tags_dynamic(self):
        recs = [
            LogRecord(host="h", timestamp=float(i), method="GET",
                      path="/cgi-bin/search" if i % 2 else "/index.html",
                      protocol="HTTP/1.1", status=200, size=512)
            for i in range(6)
        ]
        trace = trace_from_records(recs)
        assert sum(1 for r in trace if r.dynamic) == 3

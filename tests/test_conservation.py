"""Property-based conservation tests for the whole simulator.

Regardless of policy, trace shape, or parameters, the cluster must
serve every request exactly once, never lose or duplicate work, and
keep its accounting identities intact.  Hypothesis generates the
traces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SimulationParams
from repro.logs import Request, Trace
from repro.policies import (
    ExtLARDPolicy,
    LARDPolicy,
    PRORDPolicy,
    WRRPolicy,
)
from repro.sim import ClusterSimulator


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    n_conns = draw(st.integers(min_value=1, max_value=8))
    n_paths = draw(st.integers(min_value=1, max_value=12))
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
        min_size=n, max_size=n))
    reqs = []
    t = 0.0
    for i, gap in enumerate(gaps):
        t += gap
        path_idx = draw(st.integers(min_value=0, max_value=n_paths - 1))
        embedded = draw(st.booleans())
        dynamic = not embedded and draw(st.booleans())
        reqs.append(Request(
            arrival=t,
            conn_id=i % n_conns,
            path=(f"/obj{path_idx}.gif" if embedded
                  else f"/dyn{path_idx}.cgi" if dynamic
                  else f"/page{path_idx}.html"),
            size=draw(st.integers(min_value=1, max_value=64 * 1024)),
            is_embedded=embedded,
            parent=f"/page{path_idx}.html" if embedded else None,
            dynamic=dynamic,
        ))
    return Trace(reqs, name="hypothesis")


POLICY_FACTORIES = [
    WRRPolicy, LARDPolicy, ExtLARDPolicy, PRORDPolicy,
]


class TestConservation:
    @pytest.mark.parametrize("factory", POLICY_FACTORIES)
    @settings(max_examples=20, deadline=None)
    @given(trace=traces(),
           n_backends=st.integers(min_value=1, max_value=6),
           cache_kb=st.integers(min_value=1, max_value=512))
    def test_every_request_completes_once(self, factory, trace,
                                          n_backends, cache_kb):
        params = SimulationParams(n_backends=n_backends,
                                  cache_bytes=cache_kb * 1024)
        cluster = ClusterSimulator(trace, factory(), params,
                                   warmup_fraction=0.0)
        result = cluster.run()
        # Conservation: all in, all out, exactly once.
        assert result.report.completed == len(trace)
        assert sum(result.report.per_server_completed) == len(trace)
        assert sum(s.completed for s in cluster.servers) == len(trace)
        # No request finishes before it arrives.
        assert all(r.response_time >= 0 for r in cluster.metrics.records)
        # The calendar drained completely.
        assert cluster.sim.pending_events == 0
        # Worker-slot accounting returned to zero everywhere.
        assert all(s.active == 0 for s in cluster.servers)
        assert all(s.is_idle for s in cluster.servers)

    @settings(max_examples=15, deadline=None)
    @given(trace=traces())
    def test_cache_residency_matches_dispatcher(self, trace):
        """The dispatcher's locality table is exact at all times."""
        params = SimulationParams(n_backends=3, cache_bytes=64 * 1024)
        cluster = ClusterSimulator(trace, LARDPolicy(), params,
                                   warmup_fraction=0.0)
        cluster.run()
        for server in cluster.servers:
            for path in server.cache.contents():
                assert server.server_id in cluster.dispatcher.peek(path)
        # And nothing phantom: every tracked holder really holds it.
        for path in list(trace.catalog):
            for sid in cluster.dispatcher.peek(path):
                assert cluster.servers[sid].cache.peek(path)

    @settings(max_examples=15, deadline=None)
    @given(trace=traces())
    def test_hit_rate_identity(self, trace):
        params = SimulationParams(n_backends=2, cache_bytes=128 * 1024)
        cluster = ClusterSimulator(trace, WRRPolicy(), params,
                                   warmup_fraction=0.0)
        result = cluster.run()
        recs = cluster.metrics.records
        hits = sum(1 for r in recs if r.hit)
        assert result.report.hit_rate == pytest.approx(hits / len(recs))
        # Every dynamic request was generated (counted) exactly once.
        dynamic_total = sum(s.dynamic_served for s in cluster.servers)
        assert dynamic_total == sum(1 for r in trace if r.dynamic)

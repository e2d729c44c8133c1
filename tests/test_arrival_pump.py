"""Property tests: the streaming arrival pump ≡ eager scheduling.

The pump keeps only a bounded lookahead window of trace arrivals in the
event calendar; the tests here are the proof obligation that this is a
pure perf change — for random traces and every policy in the
differential battery, every lookahead window (including pathological
``window=1``) must replay the exact same event sequence and produce a
field-for-field identical :class:`SimulationResult` as the legacy eager
schedule (``arrival_window=0``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SimulationParams
from repro.core.system import (
    MINING_POLICY_NAMES,
    build_policy,
    mine_models,
)
from repro.experiments.common import loaded_workload
from repro.logs import Request, Trace
from repro.sim import ClusterSimulator
from repro.sim.cluster import DEFAULT_ARRIVAL_WINDOW
from repro.sim.differential import DEFAULT_POLICIES, report_fields
from repro.sim.tracing import RequestTracer
from tests.test_audit import MICRO

WINDOWS = (0, 1, 3, 17, None)  # 0 = eager; None = DEFAULT_ARRIVAL_WINDOW

_MODELS = None


def _mining(params):
    """Per-run mining state over one shared (module-cached) mining pass."""
    global _MODELS
    if _MODELS is None:
        _MODELS = mine_models(loaded_workload("synthetic", MICRO), params)
    return _MODELS.runtime(params)


def _params():
    return SimulationParams(n_backends=3, cache_bytes=1 << 18)


def _run(trace, policy_name, window):
    params = _params()
    mining = (_mining(params)
              if policy_name in MINING_POLICY_NAMES else None)
    policy, replicator = build_policy(policy_name, mining, params)
    tracer = RequestTracer()
    cluster = ClusterSimulator(
        trace, policy, params,
        replicator=replicator, tracer=tracer, arrival_window=window,
    )
    result = cluster.run()
    return result, cluster, tracer


def _observable(result, cluster, tracer):
    """Everything a run exposes, flattened for exact comparison."""
    return {
        **report_fields(result),
        "frontend_utilization": result.frontend_utilization,
        "server_utilizations": result.server_utilizations,
        "dispatcher_lookups": result.dispatcher_lookups,
        "warmup_until": result.warmup_until,
        "events_processed": cluster.sim.events_processed,
        "events": list(tracer),
    }


#: (gap to previous arrival, conn id, path index) per request; gaps of
#: exactly 0.0 exercise the tie-break order, the thing most at risk.
random_traces = st.lists(
    st.tuples(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=0.05,
                            allow_nan=False)),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1, max_size=40,
)


def _build_trace(spec):
    reqs, t = [], 0.0
    for gap, conn, path_idx in spec:
        t += gap
        reqs.append(Request(arrival=t, conn_id=conn,
                            path=f"/p{path_idx}",
                            size=512 * (path_idx + 1)))
    return Trace(reqs, name="random")


class TestPumpEquivalence:
    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    @settings(max_examples=12, deadline=None)
    @given(spec=random_traces)
    def test_property_every_window_matches_eager(self, policy_name, spec):
        trace = _build_trace(spec)
        eager = _observable(*_run(trace, policy_name, 0))
        assert eager["events"], "trace produced no events"
        for window in WINDOWS[1:]:
            streamed = _observable(*_run(trace, policy_name, window))
            differing = [k for k in eager if eager[k] != streamed[k]]
            assert not differing, (
                f"window={window} diverges from eager on {differing}"
            )

    def test_default_window_is_the_constructor_default(self):
        trace = _build_trace([(0.01, 0, 0)] * 5)
        cluster = ClusterSimulator(trace, build_policy("wrr")[0], _params())
        assert cluster.arrival_window == DEFAULT_ARRIVAL_WINDOW

    def test_negative_window_rejected(self):
        trace = _build_trace([(0.01, 0, 0)] * 5)
        with pytest.raises(ValueError, match="arrival_window"):
            ClusterSimulator(trace, build_policy("wrr")[0], _params(),
                             arrival_window=-1)


class TestCalendarFootprint:
    def test_high_water_bounded_by_window_not_trace(self):
        # A long, spread-out trace: eager scheduling's calendar peak
        # scales with the trace; the pump's stays near the window.
        n, window = 3000, 64
        reqs = [Request(arrival=i * 0.002, conn_id=i % 8,
                        path=f"/p{i % 16}", size=1024)
                for i in range(n)]
        trace = Trace(reqs, name="long")

        eager = ClusterSimulator(trace, build_policy("lard")[0], _params(),
                                 arrival_window=0)
        eager.run()
        assert eager.sim.calendar_high_water >= n

        pumped = ClusterSimulator(trace, build_policy("lard")[0], _params(),
                                  arrival_window=window)
        pumped.run()
        # window arrivals + in-flight service/latency events; far below
        # the trace length either way.
        assert pumped.sim.calendar_high_water <= window + 64
        assert pumped.sim.calendar_high_water < n // 10

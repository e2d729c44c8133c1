"""Property tests: the streaming arrival pump ≡ eager scheduling.

The pump keeps exactly one trace arrival in the event calendar, the next
one due; the tests here are the proof obligation that this is a pure
perf change — for random traces and every policy in the differential
battery, the streamed run must replay the exact same event sequence and
produce a field-for-field identical :class:`SimulationResult` as the
eager schedule (``eager_arrivals=True``), including across the pump's
chunk refills and for traces that start far from time zero.
"""

import dataclasses
import random
from bisect import bisect_right

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
from repro.sim.cluster import ARRIVAL_REFILL_CHUNK
from repro.sim.differential import DEFAULT_POLICIES, report_fields
from repro.sim.tracing import RequestTracer
from tests.test_audit import MICRO

_MODELS = None


def _mining(params):
    """Per-run mining state over one shared (module-cached) mining pass."""
    global _MODELS
    if _MODELS is None:
        _MODELS = mine_models(loaded_workload("synthetic", MICRO), params)
    return _MODELS.runtime(params)


def _params():
    return SimulationParams(n_backends=3, cache_bytes=1 << 18)


def _run(trace, policy_name, eager=False):
    params = _params()
    mining = (_mining(params)
              if policy_name in MINING_POLICY_NAMES else None)
    policy, replicator = build_policy(policy_name, mining, params)
    tracer = RequestTracer()
    cluster = ClusterSimulator(
        trace, policy, params,
        replicator=replicator, tracer=tracer, eager_arrivals=eager,
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


def _assert_streamed_matches_eager(trace, policy_name):
    eager = _observable(*_run(trace, policy_name, eager=True))
    assert eager["events"], "trace produced no events"
    streamed = _observable(*_run(trace, policy_name))
    differing = [k for k in eager if eager[k] != streamed[k]]
    assert not differing, f"streamed diverges from eager on {differing}"


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


def _build_trace(spec, start=0.0):
    reqs, t = [], start
    for gap, conn, path_idx in spec:
        t += gap
        reqs.append(Request(arrival=t, conn_id=conn,
                            path=f"/p{path_idx}",
                            size=512 * (path_idx + 1)))
    return Trace(reqs, name="random")


def _chunk_spanning_trace(seed=7, chunks=3, tail=37):
    """A seeded trace of ``chunks`` refill chunks plus ``tail`` requests.

    Every chunk boundary sits inside a run of 0.0 gaps, so same-time
    arrivals straddle each refill; elsewhere gaps are short enough
    that arrivals overlap in-flight work.  It starts near 1e9, as every
    bench trace does, so each rebased arrival ``arrival - t0`` rounds.
    """
    rng = random.Random(seed)
    n = chunks * ARRIVAL_REFILL_CHUNK + tail
    boundaries = range(ARRIVAL_REFILL_CHUNK, n, ARRIVAL_REFILL_CHUNK)
    spec = []
    for i in range(n):
        near_boundary = any(-3 <= i - b <= 3 for b in boundaries)
        gap = 0.0 if near_boundary else rng.choice(
            (0.0, rng.uniform(0.0, 0.004)))
        spec.append((gap, rng.randrange(12), rng.randrange(16)))
    return _build_trace(spec, start=1e9 + 0.123456789)


def _arrivals_in_calendar(cluster, trace):
    """Run ``cluster`` over ``trace``; per event, how many trace arrivals
    the calendar holds, and how many the trace had yet to deliver."""
    times = [r.arrival - trace.start for r in trace]
    samples = []

    def count(time):
        fire = cluster._arrival_pump._fire_cb
        in_calendar = sum(1 for e in cluster.sim._heap if e[2] is fire)
        samples.append((in_calendar, len(times) - bisect_right(times, time)))

    cluster.sim.observe(count)
    cluster.run()
    return samples


def _assert_one_pending_arrival(cluster, trace):
    samples = _arrivals_in_calendar(cluster, trace)
    assert samples
    assert max(held for held, _ in samples) <= 1
    # While later arrivals remain, the next one is always in the
    # calendar, so it can never drain early.
    assert all(held == 1 for held, left in samples if left)


class TestPumpEquivalence:
    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    @settings(max_examples=12, deadline=None)
    @given(spec=random_traces)
    def test_property_streamed_matches_eager(self, policy_name, spec):
        _assert_streamed_matches_eager(_build_trace(spec), policy_name)

    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    def test_refill_boundaries_and_large_start(self, policy_name):
        trace = _chunk_spanning_trace()
        assert len(trace) > 2 * ARRIVAL_REFILL_CHUNK
        _assert_streamed_matches_eager(trace, policy_name)

    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    def test_large_start_replays_as_its_rebased_copy(self, policy_name):
        # The pump routes the trace's own requests and every reader of
        # a routed arrival subtracts the trace start, so the run equals
        # one over a copy of the trace rebased to start at 0.0.
        trace = _chunk_spanning_trace()
        t0 = trace.start
        rebased = Trace([dataclasses.replace(r, arrival=r.arrival - t0)
                         for r in trace], name=trace.name)
        assert rebased.start == 0.0
        own = _observable(*_run(trace, policy_name))
        copy = _observable(*_run(rebased, policy_name))
        differing = [k for k in own if own[k] != copy[k]]
        assert not differing, f"rebased copy diverges on {differing}"


def _long_trace(n):
    return Trace([Request(arrival=i * 0.002, conn_id=i % 8,
                          path=f"/p{i % 16}", size=1024)
                  for i in range(n)], name="long")


class TestCalendarFootprint:
    def test_calendar_holds_at_most_one_arrival(self):
        # A long, spread-out trace: eager scheduling's calendar peak
        # scales with the trace; the pump's holds one arrival plus
        # in-flight service/latency events.
        n = 3000
        trace = _long_trace(n)

        pumped = ClusterSimulator(trace, build_policy("lard")[0], _params())
        _assert_one_pending_arrival(pumped, trace)
        assert pumped.sim.calendar_high_water < n // 10

        eager = ClusterSimulator(trace, build_policy("lard")[0], _params(),
                                 eager_arrivals=True)
        eager.run()
        assert eager.sim.calendar_high_water >= n

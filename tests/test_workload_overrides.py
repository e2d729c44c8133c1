"""Tests for the experiment load overrides on workload presets."""

import pytest

from repro.experiments import QUICK, ExperimentScale, loaded_workload
from repro.logs import TrafficSpec, synthetic_workload


class TestSessionRateOverride:
    def test_higher_rate_more_offered_load(self):
        # Short sessions, so arrival rate (not session tails) dominates
        # the trace span.
        slow = synthetic_workload(scale=0.05, session_rate=20.0,
                                  think_time_mean=0.1, max_session_pages=5)
        fast = synthetic_workload(scale=0.05, session_rate=80.0,
                                  think_time_mean=0.1, max_session_pages=5)
        # Same request count, compressed into less time.
        assert fast.trace.duration < slow.trace.duration
        fast_rps = len(fast.trace) / fast.trace.duration
        slow_rps = len(slow.trace) / slow.trace.duration
        assert fast_rps > 2 * slow_rps


class TestDurationOverride:
    def test_duration_mode_sustains_arrivals(self):
        w = synthetic_workload(session_rate=120.0, duration_s=5.0)
        # Sessions keep starting across the whole window: the last main
        # page of a *new* connection appears near the window end.
        first_seen = {}
        for r in w.trace:
            first_seen.setdefault(r.conn_id, r.arrival - w.trace[0].arrival)
        latest_new_conn = max(first_seen.values())
        assert latest_new_conn > 4.0

    def test_request_cap_still_respected(self):
        spec = TrafficSpec(num_requests=500, session_rate=1000.0,
                           duration_s=100.0)
        spec.validate()
        from repro.logs import SiteSpec, TraceGenerator, build_site
        site = build_site(SiteSpec(categories=("a",), pages_per_category=10))
        records = TraceGenerator(site, spec).generate_records()
        assert len(records) <= 520


class TestSessionShapeOverrides:
    def test_max_session_pages_caps(self):
        w = synthetic_workload(session_rate=100.0, duration_s=3.0,
                               max_session_pages=4)
        from collections import Counter
        pages_per_conn = Counter()
        for r in w.trace:
            if not r.is_embedded:
                pages_per_conn[r.conn_id] += 1
        assert max(pages_per_conn.values()) <= 4

    def test_think_time_compresses_sessions(self):
        slow = synthetic_workload(scale=0.05, think_time_mean=2.0)
        fast = synthetic_workload(scale=0.05, think_time_mean=0.1)
        assert fast.trace.duration < slow.trace.duration

    def test_invalid_spec_values(self):
        with pytest.raises(ValueError):
            TrafficSpec(duration_s=0).validate()
        with pytest.raises(ValueError):
            TrafficSpec(max_session_pages=0).validate()


class TestExperimentScale:
    def test_loaded_workload_applies_scale_shape(self):
        scale = ExperimentScale(
            name="t", duration_s=2.0,
            session_rates={"synthetic": 150.0},
            think_time_mean=0.1, max_session_pages=5,
        )
        w = loaded_workload("synthetic", scale)
        from collections import Counter
        pages_per_conn = Counter()
        for r in w.trace:
            if not r.is_embedded:
                pages_per_conn[r.conn_id] += 1
        assert max(pages_per_conn.values()) <= 5

    def test_quick_scale_presets_exist(self):
        for name in ("synthetic", "cs-department", "worldcup"):
            assert QUICK.rate_for(name) > 0

"""Tests for the discrete-event engine and the priority resource."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import PRIORITY_DEMAND, PRIORITY_PREFETCH, Resource, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(3.0, lambda: log.append("c"))
        sim.schedule_at(1.0, lambda: log.append("a"))
        sim.schedule_at(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0
        assert sim.events_processed == 3

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_schedule_relative(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError, match="past"):
            sim.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []
        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, lambda: log.append(("inner", sim.now)))
        sim.schedule_at(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append(1))
        sim.schedule_at(10.0, lambda: log.append(10))
        sim.schedule_at(20.0, lambda: log.append(20))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 2
        sim.run(until=15.0)
        assert log == [1, 10]
        # An ``until`` behind the clock is refused before anything pops.
        with pytest.raises(ValueError, match="past"):
            sim.run(until=12.0)
        assert sim.now == 15.0
        assert sim.pending_events == 1
        sim.run()
        assert log == [1, 10, 20]

    def test_step(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    def test_property_monotonic_clock(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule_at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)

    def test_on_event_hook_observes_every_event(self):
        sim = Simulator()
        seen = []
        sim.on_event = seen.append
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.step()
        sim.run()
        assert seen == [1.0, 2.0]

    def test_events_processed_visible_inside_hook(self):
        # The telemetry timeline reads events_processed from inside the
        # hook, so the counter must be updated before the hook fires —
        # not deferred to the end of the loop.
        sim = Simulator()
        counts = []
        sim.on_event = lambda t: counts.append(sim.events_processed)
        for i in range(3):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert counts == [1, 2, 3]

    def test_reserved_block_keeps_eager_tie_break_order(self):
        # Same times, same relative order: events pushed lazily with
        # reserved sequence numbers must interleave with later
        # schedule_at() calls exactly as an eager up-front schedule.
        def eager():
            sim = Simulator()
            log = []
            for i in range(4):
                sim.schedule_at(1.0, lambda i=i: log.append(f"r{i}"))
            sim.schedule_at(1.0, lambda: log.append("late"))
            sim.run()
            return log

        def reserved():
            sim = Simulator()
            log = []
            base = sim.reserve_sequences(4)
            # Push the block out of order and *after* the late event —
            # the reserved numbers alone must restore eager order.
            sim.schedule_at(1.0, lambda: log.append("late"))
            for i in (2, 0, 3, 1):
                sim.schedule_at_reserved(1.0, base + i,
                                         lambda i=i: log.append(f"r{i}"))
            sim.run()
            return log

        assert reserved() == eager() == ["r0", "r1", "r2", "r3", "late"]

    def test_reserve_sequences_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.reserve_sequences(-1)
        base = sim.reserve_sequences(0)
        assert sim.reserve_sequences(2) == base
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at_reserved(1.0, base, lambda: None)

    def test_calendar_high_water_tracks_peak(self):
        sim = Simulator()
        assert sim.calendar_high_water == 0
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        assert sim.calendar_high_water == 5
        sim.run()
        # Draining does not lower the recorded peak.
        assert sim.calendar_high_water == 5
        base = sim.reserve_sequences(3)
        for i in range(3):
            sim.schedule_at_reserved(sim.now + 1.0, base + i, lambda: None)
        assert sim.calendar_high_water == 5  # below the previous peak
        for i in range(6):
            sim.schedule_at(sim.now + 2.0, lambda: None)
        assert sim.calendar_high_water == 9


class TestResource:
    def test_fifo_service(self):
        sim = Simulator()
        res = Resource(sim)
        done = []
        res.submit(1.0, lambda: done.append(("a", sim.now)))
        res.submit(2.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 1.0), ("b", 3.0)]
        assert res.jobs_served == 2
        assert res.busy_time == pytest.approx(3.0)

    def test_negative_service_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim).submit(-1.0, lambda: None)

    def test_priority_ordering(self):
        sim = Simulator()
        res = Resource(sim)
        done = []
        # First job starts immediately; others queue and demand must win.
        res.submit(1.0, lambda: done.append("first"))
        res.submit(1.0, lambda: done.append("prefetch"),
                   priority=PRIORITY_PREFETCH)
        res.submit(1.0, lambda: done.append("demand"))
        sim.run()
        assert done == ["first", "demand", "prefetch"]

    def test_in_service_job_not_preempted(self):
        sim = Simulator()
        res = Resource(sim)
        done = []
        res.submit(5.0, lambda: done.append("long-prefetch"),
                   priority=PRIORITY_PREFETCH)
        sim.schedule_at(1.0, lambda: res.submit(
            1.0, lambda: done.append("demand")))
        sim.run()
        assert done == ["long-prefetch", "demand"]
        assert sim.now == 6.0

    def test_promote_queued_job(self):
        sim = Simulator()
        res = Resource(sim)
        done = []
        res.submit(1.0, lambda: done.append("running"))
        pf = res.submit(1.0, lambda: done.append("promoted"),
                        priority=PRIORITY_PREFETCH)
        res.submit(1.0, lambda: done.append("demand"))
        assert res.promote(pf)
        sim.run()
        assert done == ["running", "promoted", "demand"]

    def test_promote_heap_rebuild_deterministic(self):
        # The lazy heap rebuild inside promote() must preserve FIFO
        # order within each priority class (ties broken by submission
        # seq), and repeating the same scenario must give the same
        # completion order every time.
        def run_scenario():
            sim = Simulator()
            res = Resource(sim)
            done = []
            res.submit(1.0, lambda: done.append("running"))
            handles = [
                res.submit(1.0, lambda i=i: done.append(f"pf{i}"),
                           priority=PRIORITY_PREFETCH)
                for i in range(4)
            ]
            res.submit(1.0, lambda: done.append("demand"))
            # Promote the 3rd then the 1st prefetch: both join the
            # demand class but keep their original submission order.
            assert res.promote(handles[2])
            assert res.promote(handles[0])
            sim.run()
            return done

        first = run_scenario()
        assert first == ["running", "pf0", "pf2", "demand", "pf1", "pf3"]
        assert all(run_scenario() == first for _ in range(5))

    def test_promote_started_job_is_noop(self):
        sim = Simulator()
        res = Resource(sim)
        job = res.submit(1.0, lambda: None, priority=PRIORITY_PREFETCH)
        # The job starts immediately (empty queue).
        assert not res.promote(job)

    def test_promote_demand_job_is_noop(self):
        sim = Simulator()
        res = Resource(sim)
        res.submit(1.0, lambda: None)
        job = res.submit(1.0, lambda: None)
        assert not res.promote(job)

    def test_utilization(self):
        sim = Simulator()
        res = Resource(sim)
        res.submit(2.0, lambda: None)
        sim.run()
        sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert res.utilization(4.0) == pytest.approx(0.5)
        assert res.utilization(0.0) == 0.0

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim)
        res.submit(1.0, lambda: None)
        res.submit(1.0, lambda: None)
        res.submit(1.0, lambda: None)
        assert res.queue_length == 2
        assert res.busy
        sim.run()
        assert res.queue_length == 0
        assert not res.busy

    def test_completion_callback_can_resubmit(self):
        sim = Simulator()
        res = Resource(sim)
        count = []
        def resubmit():
            count.append(sim.now)
            if len(count) < 3:
                res.submit(1.0, resubmit)
        res.submit(1.0, resubmit)
        sim.run()
        assert count == [1.0, 2.0, 3.0]

    @given(st.lists(st.tuples(
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
        st.sampled_from([PRIORITY_DEMAND, PRIORITY_PREFETCH])),
        min_size=1, max_size=30))
    def test_property_work_conservation(self, jobs):
        sim = Simulator()
        res = Resource(sim)
        done = []
        for service, prio in jobs:
            res.submit(service, lambda: done.append(sim.now), priority=prio)
        sim.run()
        total = sum(s for s, _ in jobs)
        assert len(done) == len(jobs)
        # A single-server work-conserving queue finishes exactly at the
        # sum of service times when all jobs arrive at t=0.
        assert max(done) == pytest.approx(total)
        assert res.busy_time == pytest.approx(total)

    @given(st.lists(st.sampled_from([PRIORITY_DEMAND, PRIORITY_PREFETCH]),
                    min_size=2, max_size=25))
    def test_property_queued_demand_before_queued_prefetch(self, prios):
        # Whatever the submission interleaving, once the first job (which
        # starts immediately) is out of the way, every queued demand job
        # completes before every queued prefetch job, FIFO within class.
        sim = Simulator()
        res = Resource(sim)
        order = []
        for i, prio in enumerate(prios):
            res.submit(1.0, lambda i=i: order.append(i), priority=prio)
        sim.run()
        assert order[0] == 0
        queued = list(range(1, len(prios)))
        assert order[1:] == sorted(queued, key=lambda i: (prios[i], i))

    @given(st.floats(min_value=0.5, max_value=10, allow_nan=False),
           st.lists(st.floats(min_value=0.01, max_value=0.99),
                    min_size=1, max_size=6))
    def test_property_in_service_prefetch_never_preempted(
            self, pf_service, fractions):
        # Demand jobs arriving mid-service must wait: the in-service
        # prefetch read completes exactly at its own service time.
        sim = Simulator()
        res = Resource(sim)
        done = {}
        res.submit(pf_service, lambda: done.setdefault("pf", sim.now),
                   priority=PRIORITY_PREFETCH)
        for k, frac in enumerate(fractions):
            sim.schedule_at(frac * pf_service,
                            lambda: res.submit(0.1, lambda: None))
        sim.run()
        assert done["pf"] == pytest.approx(pf_service)

    @given(st.lists(st.sampled_from([PRIORITY_DEMAND, PRIORITY_PREFETCH]),
                    min_size=1, max_size=15))
    def test_property_promote_noop_cases(self, prios):
        # promote() must refuse: a started job, an equal-priority target,
        # and a demotion — and refused promotions must not disturb the
        # (priority, submission-order) completion order.
        sim = Simulator()
        res = Resource(sim)
        order = []
        running = res.submit(1.0, lambda: order.append(-1))
        assert not res.promote(running)  # already started
        handles = [
            res.submit(1.0, lambda i=i: order.append(i), priority=prio)
            for i, prio in enumerate(prios)
        ]
        for handle, prio in zip(handles, prios):
            assert not res.promote(handle, prio)  # equal priority
            assert not res.promote(handle, PRIORITY_PREFETCH)  # never raises
            if prio == PRIORITY_DEMAND:
                assert not res.promote(handle)  # already demand
        sim.run()
        assert order[0] == -1
        expected = sorted(range(len(prios)), key=lambda i: (prios[i], i))
        assert order[1:] == expected

    def test_busy_fraction_exposes_accounting_overrun(self):
        # utilization() clamps to 1.0 for reporting; busy_fraction() must
        # NOT, so the auditor can catch busy time exceeding wall-clock.
        sim = Simulator()
        res = Resource(sim)
        res.submit(2.0, lambda: None)
        sim.run()
        res.busy_time = 8.0  # corrupt the books
        assert res.busy_fraction(4.0) == pytest.approx(2.0)
        assert res.utilization(4.0) == 1.0

    def test_busy_fraction_counts_in_service_job(self):
        sim = Simulator()
        res = Resource(sim)
        res.submit(4.0, lambda: None)
        sim.run(until=2.0)
        assert res.busy_fraction(2.0) == pytest.approx(1.0)
        assert res.busy_fraction(0.0) == 0.0

"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import ScheduledEvent, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(3.0, out.append, "c")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.25]
        assert sim.now == 4.25

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        out = []
        for tag in range(10):
            sim.schedule(1.0, out.append, tag)
        sim.run()
        assert out == list(range(10))

    def test_zero_delay_event_fires(self):
        sim = Simulator()
        out = []
        sim.schedule(0.0, out.append, 1)
        sim.run()
        assert out == [1]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_event_schedules_further_events(self):
        sim = Simulator()
        out = []

        def first():
            out.append("first")
            sim.schedule(1.0, lambda: out.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert out == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_chain_does_not_advance_clock(self):
        sim = Simulator()
        depth = []

        def recurse(k):
            if k < 5:
                depth.append(sim.now)
                sim.schedule(0.0, recurse, k + 1)

        sim.schedule(1.0, recurse, 0)
        sim.run()
        assert depth == [1.0] * 5

    def test_args_passed_through(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
        sim.run()
        assert got == [(1, "x", None)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(1.0, out.append, "no")
        ev.cancel()
        sim.run()
        assert out == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()
        assert not ev.fired

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        ev.cancel()
        assert ev.fired

    def test_pending_transitions(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert ev.pending
        sim.run()
        assert not ev.pending

    def test_cancel_from_within_event(self):
        sim = Simulator()
        out = []
        later = sim.schedule(2.0, out.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert out == []

    def test_cancelled_entries_leave_only_by_the_lazy_pop(self):
        # A mass cancellation leaves every entry queued; run() drops each
        # one as it reaches the front, and the survivors keep their order.
        sim = Simulator()
        out = []
        evs = [sim.schedule(float(i), out.append, i) for i in range(300)]
        for i, ev in enumerate(evs):
            if i % 3:
                ev.cancel()
        assert len(sim._heap) == 300
        assert sim.pending_count() == 100
        sim.run()
        assert out == list(range(0, 300, 3))
        assert sim.events_processed == 100
        assert sim.cancelled_skipped == 200
        assert sim.pending_count() == 0 and sim._heap == []


class TestRunControl:
    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "in")
        sim.schedule(5.0, out.append, "beyond")
        sim.run(until=3.0)
        assert out == ["in"]
        assert sim.now == 3.0

    def test_run_until_is_resumable(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(5.0, out.append, "b")
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert out == ["a", "b"]

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        out = []
        sim.schedule(3.0, out.append, "edge")
        sim.run(until=3.0)
        assert out == ["edge"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_clear_drops_and_unlinks_pending_events(self):
        sim = Simulator()
        out = []
        live = sim.schedule(1.0, out.append, "a")
        dead = sim.schedule(2.0, out.append, "b")
        dead.cancel()
        sim.clear()
        assert sim.pending_count() == 0 and sim._heap == []
        assert not live.pending and live.fn is None and live.args == ()
        live.cancel()  # a dropped handle still cancels harmlessly
        assert sim.pending_count() == 0
        sim.run()
        assert out == [] and sim.events_processed == 0


class TestIntrospection:
    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.pending_count() == 1

    def test_pending_count_is_live_counter(self):
        # pending_count is O(1) (len(heap) - cancelled-in-heap): check the
        # bookkeeping through every path a cancelled entry can leave by.
        sim = Simulator()
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending_count() == 4
        evs[0].cancel()
        evs[0].cancel()  # idempotent: must not double-count
        assert sim.pending_count() == 3
        sim.run(until=2.0)  # pops the cancelled head, then fires evs[1]
        assert sim.pending_count() == 2
        evs[2].cancel()
        sim.run()  # drains the rest, skipping the cancelled entry
        assert sim.pending_count() == 0
        assert sim.cancelled_skipped == 2

    def test_cancel_after_fire_keeps_count_exact(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        ev.cancel()  # no-op on a fired event: count must not go stale
        assert sim.pending_count() == 1
        sim.run()
        assert sim.pending_count() == 0

    def test_run_counts_cancelled_churn(self):
        sim = Simulator()
        live = [sim.schedule(float(i), lambda: None) for i in range(6)]
        for ev in live[::2]:
            ev.cancel()
        sim.run()
        assert sim.events_processed == 3
        assert sim.cancelled_skipped == 3

    def test_determinism_same_schedule_same_order(self):
        def run_once():
            sim = Simulator()
            out = []
            for i in range(50):
                sim.schedule((i * 7) % 5 * 0.1, out.append, i)
            sim.run()
            return out

        assert run_once() == run_once()


class TestCohorts:
    def test_cohort_fires_once_counts_many(self):
        sim = Simulator()
        calls = []
        sim.schedule_cohort_at(1.0, 5, calls.append, "batch")
        sim.run()
        assert calls == ["batch"]  # one dispatch...
        assert sim.events_processed == 5  # ...five logical events

    def test_cohort_at_absolute_time(self):
        sim = Simulator()
        out = []
        sim.schedule_cohort_at(2.0, 3, out.append, "x")
        sim.schedule(1.0, out.append, "a")
        sim.run()
        assert out == ["a", "x"]
        assert sim.now == 2.0
        assert sim.events_processed == 4

    def test_cohort_count_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_cohort_at(1.0, 0, lambda: None)

    def test_cohort_fifo_tie_order_matches_plain_events(self):
        # A cohort occupies exactly one (time, seq) slot: events scheduled
        # around it at the same instant keep their FIFO order.
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "before")
        sim.schedule_cohort_at(1.0, 9, out.append, "cohort")
        sim.schedule(1.0, out.append, "after")
        sim.run()
        assert out == ["before", "cohort", "after"]

    def test_cancelled_cohort_counts_nothing(self):
        sim = Simulator()
        ev = sim.schedule_cohort_at(1.0, 7, lambda: None)
        ev.cancel()
        sim.run()
        assert sim.events_processed == 0
        assert sim.cancelled_skipped == 1

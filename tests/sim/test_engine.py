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

    def test_stop_halts_run(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: (out.append("one"), sim.stop()))
        sim.schedule(2.0, out.append, "two")
        sim.run()
        assert out == ["one"]

    def test_step_fires_one_event(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        assert sim.step()
        assert out == ["a"]
        assert sim.step()
        assert out == ["a", "b"]
        assert not sim.step()

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
        assert sim.pending_count() == 0 and sim.peek_time() is None
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

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        ev = sim.schedule(2.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        assert sim.peek_time() == 2.0
        ev.cancel()
        assert sim.peek_time() == 5.0

    def test_peek_time_purges_cancelled_front_entries(self):
        sim = Simulator()
        cancelled = [sim.schedule(float(i), lambda: None) for i in range(5)]
        sim.schedule(10.0, lambda: None)
        for ev in cancelled:
            ev.cancel()
        assert sim.peek_time() == 10.0
        # the lazy scan removed the garbage and recorded the churn
        assert len(sim._heap) == 1
        assert sim.cancelled_skipped == 5
        # repeated peeks don't re-count
        assert sim.peek_time() == 10.0
        assert sim.cancelled_skipped == 5

    def test_pending_count_is_live_counter(self):
        # pending_count is O(1) (len(heap) - cancelled-in-heap): check the
        # bookkeeping through every path a cancelled entry can leave by.
        sim = Simulator()
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending_count() == 4
        evs[0].cancel()
        evs[0].cancel()  # idempotent: must not double-count
        assert sim.pending_count() == 3
        sim.step()  # pops the cancelled head, then fires evs[1]
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

    def test_peek_time_all_cancelled_returns_none(self):
        sim = Simulator()
        evs = [sim.schedule(1.0, lambda: None), sim.schedule(2.0, lambda: None)]
        for ev in evs:
            ev.cancel()
        assert sim.peek_time() is None
        assert sim.cancelled_skipped == 2

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
        sim.schedule_cohort(1.0, 5, calls.append, "batch")
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
            sim.schedule_cohort(1.0, 0, lambda: None)

    def test_cohort_fifo_tie_order_matches_plain_events(self):
        # A cohort occupies exactly one (time, seq) slot: events scheduled
        # around it at the same instant keep their FIFO order.
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "before")
        sim.schedule_cohort(1.0, 9, out.append, "cohort")
        sim.schedule(1.0, out.append, "after")
        sim.run()
        assert out == ["before", "cohort", "after"]

    def test_cancelled_cohort_counts_nothing(self):
        sim = Simulator()
        ev = sim.schedule_cohort(1.0, 7, lambda: None)
        ev.cancel()
        sim.run()
        assert sim.events_processed == 0
        assert sim.cancelled_skipped == 1

    def test_step_counts_cohort_members(self):
        sim = Simulator()
        sim.schedule_cohort(1.0, 4, lambda: None)
        assert sim.step() is True
        assert sim.events_processed == 4


class TestHeapCompaction:
    def test_compaction_sweeps_when_mostly_dead(self):
        sim = Simulator()
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(210)]
        for ev in evs[:150]:
            ev.cancel()
        # The sweep fired as soon as dead entries outnumbered live ones
        # (at the 106th cancellation: 105 live remain > we keep cancelling);
        # the remaining cancellations re-accumulate below the floor.
        assert sim.compaction_swept == 106
        assert len(sim._heap) == 104
        assert sim._cancelled_pending == 44
        assert sim.pending_count() == 60
        sim.run()
        assert sim.events_processed == 60
        # every cancelled entry was counted exactly once, sweep or lazy pop
        assert sim.cancelled_skipped == 150

    def test_no_compaction_below_floor(self):
        sim = Simulator()
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
        for ev in evs[:15]:
            ev.cancel()
        # 15 dead of 20 is proportionally plenty but under the 64 floor
        assert sim.compaction_swept == 0
        assert len(sim._heap) == 20
        sim.run()
        assert sim.events_processed == 5
        assert sim.cancelled_skipped == 15

    def test_compaction_preserves_order_and_pending_count(self):
        sim = Simulator()
        out = []
        survivors = []
        doomed = []
        for i in range(300):
            ev = sim.schedule(float(i), out.append, i)
            (survivors if i % 3 == 0 else doomed).append((i, ev))
        for _i, ev in doomed:
            ev.cancel()
        assert sim.compaction_swept > 0
        assert sim.pending_count() == len(survivors)
        sim.run()
        # survivors fire in their original time order, none lost
        assert out == [i for i, _ev in survivors]
        assert sim.events_processed == len(survivors)

    def test_compaction_mid_run_keeps_local_heap_alias_valid(self):
        # Cancelling from inside a fired event triggers compaction while
        # run() holds a local reference to the heap list; the sweep must
        # mutate that same list in place.
        sim = Simulator()
        doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(150)]
        out = []

        def cancel_all():
            for ev in doomed:
                ev.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(2.0, out.append, "after")
        sim.run()
        assert out == ["after"]
        assert sim.compaction_swept > 0
        assert sim.events_processed == 2

"""Unit tests for the timer helpers."""

import random

import pytest

from repro.sim import PeriodicTimer, Simulator


class TestPeriodicTimer:
    def test_ticks_at_period(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=2.0)
        timer.start()
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_initial_delay_override(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=2.0)
        timer.start(initial_delay=0.0)
        sim.run(until=5.0)
        assert ticks == [0.0, 2.0, 4.0]

    def test_jitter_bounds(self):
        sim = Simulator()
        ticks = []
        rng = random.Random(42)
        timer = PeriodicTimer(
            sim, lambda: ticks.append(sim.now), period=10.0, jitter=1.0, rng=rng
        )
        timer.start(initial_delay=0.0)
        sim.run(until=100.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(9.0 <= g <= 11.0 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1  # actually jittered

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), lambda: None, period=1.0, jitter=0.1)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), lambda: None, period=0.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), lambda: None, period=1.0, jitter=-1.0)

    def test_double_start_rejected(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, lambda: None, period=1.0)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_running_property(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, lambda: None, period=1.0)
        assert not timer.running
        timer.start()
        assert timer.running
        sim.clear()  # how a finished run stops its timers
        assert not timer.running

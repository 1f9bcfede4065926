"""The periodic timer built on the DES kernel.

Protocol code needs "fire every T, with optional jitter" (interest
refresh, exploratory events, source data).  :class:`PeriodicTimer` wraps
the raw :class:`~repro.sim.engine.Simulator` scheduling API with that
idiom so the protocol modules stay readable.  A finished run stops its
timers by clearing the simulator (:meth:`Simulator.clear`), which cancels
each timer's pending tick.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from .engine import ScheduledEvent, Simulator

__all__ = ["PeriodicTimer"]


class PeriodicTimer:
    """Repeating timer with optional uniform jitter per period.

    Jitter desynchronises periodic protocol actions across nodes the same
    way ns-2 diffusion code jitters interest and exploratory timers; without
    it, synchronized floods collide pathologically at the MAC.
    """

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[[], Any],
        period: float,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self._sim = sim
        self._fn = fn
        self.period = period
        self.jitter = jitter
        self._rng = rng
        self._event: Optional[ScheduledEvent] = None

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking.  First tick after ``initial_delay`` (default: one
        jittered period)."""
        if self.running:
            raise RuntimeError("periodic timer already running")
        delay = self._next_delay() if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._fire)

    @property
    def running(self) -> bool:
        return self._event is not None and self._event.pending

    def _next_delay(self) -> float:
        if self.jitter > 0:
            assert self._rng is not None
            return self.period + self._rng.uniform(-self.jitter, self.jitter)
        return self.period

    def _fire(self) -> None:
        # Re-arm *before* the callback: the next tick's jitter draw then
        # precedes every draw the callback makes from the same stream (the
        # agents share the node's MAC stream), and the golden runs pin
        # that order.
        self._event = self._sim.schedule(self._next_delay(), self._fire)
        self._fn()

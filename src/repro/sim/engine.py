"""Discrete-event simulation kernel.

This module is the substrate that replaces ns-2's scheduler for the
reproduction.  It provides a classic calendar-queue simulator:

* :class:`Simulator` — owns the virtual clock and the pending-event heap.
* :class:`ScheduledEvent` — a cancellable handle returned by
  :meth:`Simulator.schedule`.

Semantics match what the protocol code needs from ns-2:

* Events fire in non-decreasing time order.
* Events scheduled for the same instant fire in FIFO order of scheduling
  (ties are broken by a monotonically increasing sequence number), which
  makes runs bit-for-bit deterministic for a fixed seed.
* An event may schedule further events, including zero-delay events, which
  fire before the clock advances.

Performance notes (this is the hottest loop in the repo — every frame on
the air turns into heap traffic here):

* Heap entries are plain ``(time, seq, event)`` tuples, compared by
  CPython's C tuple comparison; ``seq`` is unique so the event object is
  never compared.
* :meth:`Simulator.run` is the only event loop, and its lazy pop is the
  only way a cancelled entry leaves the heap: a cancelled entry stays
  queued until it reaches the front, where ``run`` drops it and counts it
  in ``cancelled_skipped``.  Runs keep the heap small (at most 768
  entries in the paper-sized runs measured for DESIGN.md §13), so dead
  entries cost little until then.
* :meth:`Simulator.pending_count` is O(1): cancellations are counted as
  they happen (see :meth:`ScheduledEvent.cancel`) instead of scanning the
  heap, because the ``sim.pending_events`` timeline probe reads it on
  every sample and the profiler's sampler thread on every stack sample.
* :attr:`Simulator.now` is a plain attribute, not a property: the PHY
  reads it once per receiver per frame, where a property call is
  measurable.  Only :meth:`Simulator.run` writes it.
* **Event cohorts** — a batch of homogeneous logical events that share a
  timestamp (e.g. one frame's arrival at every in-range receiver) can be
  scheduled as a *single* heap entry via :meth:`Simulator.schedule_cohort_at`
  with an explicit member ``count``.  The cohort occupies one
  ``(time, seq)`` slot — FIFO tie-order against every other event is
  exactly that of the single event it replaces, so runs stay bit-for-bit
  deterministic — while ``events_processed`` advances by the full member
  count, keeping throughput accounting in units of logical events rather
  than Python dispatches.
* **No profiling hook** — :meth:`Simulator.run` calls each callback
  directly; :class:`repro.obs.profiler.Profiler` samples the loop's stack
  from another thread, so profiled runs execute the same code.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = ["Simulator", "ScheduledEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler use (negative delays, running twice...)."""


class ScheduledEvent:
    """Handle for a pending callback.

    Instances are created by :meth:`Simulator.schedule`; user code only
    ever cancels or inspects them.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "count", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
        count: int = 1,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        #: how many logical events this entry stands for (cohorts > 1)
        self.count = count
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; cancelling an
        already-fired event is a harmless no-op."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            # Keep the owning simulator's live-entry count exact so
            # pending_count() stays O(1).
            sim._cancelled_pending += 1

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<ScheduledEvent t={self.time:.6f} {name} {state}>"


class Simulator:
    """Event-driven virtual-time scheduler.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.5, out.append, "b")
    >>> _ = sim.schedule(0.5, out.append, "a")
    >>> sim.run()
    >>> out
    ['a', 'b']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        #: current virtual time in seconds (written only by run())
        self.now: float = 0.0
        #: pending events as (time, seq, event) tuples (cheap C comparison)
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq: int = 0
        self._running = False
        self.events_processed: int = 0
        #: cancelled entries popped off the heap (scheduling churn)
        self.cancelled_skipped: int = 0
        #: cancelled entries still sitting in the heap (see pending_count)
        self._cancelled_pending: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  Returns a cancellable handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        ev = ScheduledEvent(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def schedule_cohort_at(
        self, time: float, count: int, fn: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule one heap entry at ``time`` standing for ``count`` events.

        The callback fires exactly once, but ``events_processed`` advances
        by ``count`` — use this when a single dispatch handles a whole
        batch of homogeneous events (e.g. one frame arriving at every
        in-range receiver).  ``count`` must be positive.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        if count < 1:
            raise SimulationError(f"cohort count must be >= 1 (got {count})")
        ev = ScheduledEvent(time, fn, args, self, count=count)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or the clock reaches ``until``.

        When ``until`` is given, all events with ``time <= until`` fire and
        the clock is left at ``until`` (so a subsequent ``run`` continues
        from there), matching ns-2's ``$ns run`` + stop-event idiom.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                time, _seq, ev = heap[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                if ev.cancelled:
                    self.cancelled_skipped += 1
                    self._cancelled_pending -= 1
                    continue
                self.now = time
                ev.fired = True
                self.events_processed += ev.count
                ev.fn(*ev.args)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def clear(self) -> None:
        """Drop every pending event and unlink its callback.

        Each dropped handle reads as cancelled.  A callback is usually a
        bound method of an object that keeps the handle (a timer, a MAC),
        so unlinking it breaks that cycle as well as the heap's.
        """
        for _time, _seq, ev in self._heap:
            ev.cancelled = True
            ev.fn = None
            ev.args = ()
        self._heap.clear()
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"

"""Discrete-event simulation kernel (the ns-2 replacement substrate).

Public surface:

* :class:`Simulator` / :class:`ScheduledEvent` — the event scheduler
  (profiled from another thread, see :mod:`repro.obs.profiler`).
* :class:`PeriodicTimer` — the jittered periodic protocol timer.
* :class:`Tracer` / :class:`TraceRecord` — registry-backed metrics and
  structured traces.
* :class:`RngRegistry` — named deterministic random substreams.
"""

from .engine import ScheduledEvent, SimulationError, Simulator
from .rng import RngRegistry, derive_seed
from .timers import PeriodicTimer
from .trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "PeriodicTimer",
    "Tracer",
    "TraceRecord",
    "RngRegistry",
    "derive_seed",
]

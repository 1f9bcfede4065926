"""Simulation tracing and counters.

A :class:`Tracer` is attached to a simulation and carries two kinds of
observations:

* **metrics** — cheap typed statistics backed by a
  :class:`~repro.obs.registry.MetricsRegistry`.  ``tracer.count()`` bumps
  an unlabelled registry counter; the protocol layers (diffusion, greedy,
  node) and the MAC's rare paths (drops, retries) use it.  The
  per-receiver and per-frame PHY/MAC counters never reach it: they are
  plain ints that :meth:`~repro.net.radio.Channel.publish_counters`
  copies into the registry after the run.  Reads, and call sites
  needing gauges, histograms, or labels, go to the registry directly
  (``tracer.registry.value("mac.retry")``,
  ``tracer.registry.histogram("agg.merge_size")``).
* **records** — optional structured trace entries (time, category,
  fields), enabled per category.  The tracer keeps none of them: each
  record goes to the registered listeners (the JSONL
  :class:`~repro.obs.export.TraceWriter`, the online
  :class:`~repro.obs.audit.Auditor`, a
  :class:`~repro.obs.lineage.LineageIndex`, or a test's
  ``records.append``) and is then dropped, so observing a run costs no
  memory per record and adds nothing to its counters.  Disabled
  categories cost one set lookup per call.

Keeping tracing inside the kernel (rather than ad-hoc prints) is what lets
property tests assert global invariants such as "every reception has a
matching transmission".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..obs.options import TRACE_CATEGORIES
from ..obs.registry import MetricsRegistry

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace entry."""

    time: float
    category: str
    fields: tuple[tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict[str, Any]:
        return dict(self.fields)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.time:10.6f} {self.category:<24} {kv}"


class Tracer:
    """Counters plus a record dispatcher for one simulation run."""

    def __init__(
        self,
        clock: Callable[[], float],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self._enabled: set[str] = set()
        self._listeners: list[Callable[[TraceRecord], None]] = []
        #: per-tracer fast path: counter-name -> instrument handle
        self._counter_cache: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # counters (a thin front over the registry)
    # ------------------------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        """Increment the unlabelled registry counter ``key`` by ``n``.

        The counter is created on first use, so a key that never fires
        never appears in :attr:`counters`.
        """
        c = self._counter_cache.get(key)
        if c is None:
            c = self._counter_cache[key] = self.registry.counter(key)
        c.inc(n)

    @property
    def counters(self):
        """Flat counter snapshot (``name{labels}`` -> value)."""
        return self.registry.counters_flat()

    # ------------------------------------------------------------------
    # structured records
    # ------------------------------------------------------------------
    def enable(self, *categories: str) -> None:
        """Turn on record dispatch for the given categories.

        ``enable("*")`` records everything.  A name not in
        :data:`~repro.obs.options.TRACE_CATEGORIES` raises ``ValueError``
        before any category is enabled, so a typo'd category fails
        loudly instead of recording nothing.
        """
        for category in categories:
            if category != "*" and category not in TRACE_CATEGORIES:
                known = ", ".join(sorted(TRACE_CATEGORIES))
                raise ValueError(
                    f"unknown trace category {category!r} — known categories: {known} "
                    "(declare new kernel categories in repro.obs.options."
                    "TRACE_CATEGORIES)"
                )
        self._enabled.update(categories)

    def wants(self, category: str) -> bool:
        """True if :meth:`record` would do anything for ``category``.

        Hot paths (one ``phy.tx``/``phy.rx`` per frame) call this before
        building the kwargs dict a :meth:`record` call would need — when
        nothing listens, the whole record is skipped for the cost of one
        set lookup.
        """
        enabled = self._enabled
        return category in enabled or "*" in enabled

    def add_listener(self, fn: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked for every *recorded* entry."""
        self._listeners.append(fn)

    def record(self, category: str, **fields: Any) -> None:
        """Hand a record to every listener if its category is enabled."""
        if category not in self._enabled and "*" not in self._enabled:
            return
        rec = TraceRecord(self._clock(), category, tuple(fields.items()))
        for fn in self._listeners:
            fn(rec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer counters={len(self.counters)} listeners={len(self._listeners)} "
            f"enabled={sorted(self._enabled)}>"
        )

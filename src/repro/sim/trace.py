"""Simulation tracing and counters.

A :class:`Tracer` is attached to a simulation and collects two kinds of
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
  fields), enabled per category, used by tests, the CLI's trace export,
  and offline analysis.  Disabled categories cost one set lookup per
  call.

The in-memory record store is **bounded** (``max_records``, default
:data:`~repro.obs.options.DEFAULT_MAX_RECORDS`): once full, new records
still reach listeners (e.g. a streaming
:class:`~repro.obs.export.TraceWriter`) but are not stored, and the drop
is counted under ``trace.records_dropped``.  ``max_records=0`` is the
pure-streaming mode; ``max_records=None`` removes the bound.

Keeping tracing inside the kernel (rather than ad-hoc prints) is what lets
property tests assert global invariants such as "every reception has a
matching transmission".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..obs.options import DEFAULT_MAX_RECORDS, TRACE_CATEGORIES
from ..obs.registry import MetricsRegistry

__all__ = ["TraceRecord", "Tracer", "DEFAULT_MAX_RECORDS"]


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
    """Metrics + structured-record sink for one simulation run."""

    def __init__(
        self,
        clock: Callable[[], float],
        registry: Optional[MetricsRegistry] = None,
        max_records: Optional[int] = DEFAULT_MAX_RECORDS,
    ) -> None:
        self._clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_records = max_records
        self.records_dropped = 0
        self._enabled: set[str] = set()
        #: tracer-local categories beyond the central TRACE_CATEGORIES
        #: table (tests and ad-hoc tooling register their own names here)
        self._extra_categories: set[str] = set()
        self._records: list[TraceRecord] = []
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
    def register_category(self, *categories: str) -> None:
        """Declare tracer-local categories not in the central table.

        The kernel's own categories live in
        :data:`repro.obs.options.TRACE_CATEGORIES`; tests and ad-hoc
        tooling that emit their own records register the names here so
        :meth:`enable` can still reject typos.
        """
        self._extra_categories.update(categories)

    def known_categories(self) -> frozenset[str]:
        """Every category :meth:`enable` accepts on this tracer."""
        return frozenset(TRACE_CATEGORIES) | frozenset(self._extra_categories)

    def enable(self, *categories: str) -> None:
        """Turn on record collection for the given categories.

        ``enable("*")`` records everything.  Unknown names — not in
        :data:`~repro.obs.options.TRACE_CATEGORIES` and not registered
        via :meth:`register_category` — raise ``ValueError``, so a
        typo'd category fails loudly instead of recording nothing.
        """
        for category in categories:
            if category == "*":
                continue
            if category not in TRACE_CATEGORIES and category not in self._extra_categories:
                known = ", ".join(sorted(self.known_categories()))
                raise ValueError(
                    f"unknown trace category {category!r} — known categories: {known} "
                    "(declare new kernel categories in repro.obs.options."
                    "TRACE_CATEGORIES, or register tracer-local ones with "
                    "Tracer.register_category)"
                )
        self._enabled.update(categories)

    def disable(self, *categories: str) -> None:
        self._enabled.difference_update(categories)

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

    def remove_listener(self, fn: Callable[[TraceRecord], None]) -> None:
        self._listeners.remove(fn)

    def record(self, category: str, **fields: Any) -> None:
        """Emit a structured record if its category is enabled."""
        if category not in self._enabled and "*" not in self._enabled:
            return
        rec = TraceRecord(self._clock(), category, tuple(fields.items()))
        if self.max_records is None or len(self._records) < self.max_records:
            self._records.append(rec)
        else:
            self.records_dropped += 1
            if self.max_records:  # bounded store overflowed: make it loud
                self.count("trace.records_dropped")
        for fn in self._listeners:
            fn(rec)

    def records(self, category: Optional[str] = None) -> list[TraceRecord]:
        """All collected records, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r.category == category]

    def categories(self) -> Iterable[str]:
        return sorted({r.category for r in self._records})

    def clear_records(self) -> None:
        self._records.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer counters={len(self.counters)} records={len(self._records)} "
            f"enabled={sorted(self._enabled)}>"
        )

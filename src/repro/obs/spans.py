"""Span-based request tracing for the service (and anything else).

A *span* is one named, timed operation with attributes; spans link to a
parent span and share a *trace id*, so every operation a request caused
— parsing, queue wait, dedup verdicts, worker execution, store writes —
resolves to one parent-linked tree.  This is the request-side complement
to the simulation's tracer: the tracer answers "what happened *inside*
run X", spans answer "why did *job* X take 40 seconds".

Design constraints (why this is ~200 lines and not OpenTelemetry):

* **cheap enough to stay on by default** — starting and ending a span is
  two ``time.time()`` calls, a dict, and a deque append.  Nothing here
  is per-simulation-event; the recording rate is per *request/run*, so a
  busy daemon records hundreds of spans per second, not millions.
* **bounded** — finished spans live in a ring buffer
  (:class:`SpanStore`, default :data:`DEFAULT_SPAN_CAPACITY`); old
  traces fall off the back instead of eating memory.  ``spans.started``
  / ``spans.dropped`` counters land in the metrics registry when one is
  attached, so eviction is observable.
* **process-boundary friendly** — ids are plain hex strings.  A worker
  process cannot share the daemon's :class:`SpanStore`, so it builds
  span *dicts* (:func:`make_span`) against a propagated
  :class:`SpanContext` and the parent :meth:`SpanStore.ingest`\\ s them
  after the round trip.  The tree looks seamless; no IPC machinery.

Chrome/Perfetto export lives with the other exporters:
:func:`repro.obs.export.write_chrome_trace`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .registry import MetricsRegistry

__all__ = [
    "SPAN_VERSION",
    "DEFAULT_SPAN_CAPACITY",
    "SpanContext",
    "Span",
    "SpanStore",
    "make_span",
    "span_tree",
    "new_trace_id",
    "new_span_id",
]

SPAN_VERSION = 1

#: default ring capacity: at ~10 spans per job this keeps the last few
#: hundred jobs inspectable for well under 10 MB
DEFAULT_SPAN_CAPACITY = 8192


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (doubles as the correlation id)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: enough to parent children
    across any boundary (async task, thread, worker process)."""

    trace_id: str
    span_id: str

    def as_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


def make_span(
    name: str,
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    start_s: float,
    end_s: float,
    attributes: Optional[dict[str, Any]] = None,
    status: str = "ok",
) -> dict[str, Any]:
    """Build one finished-span payload dict (the wire/ingest format).

    This is what worker processes return to the daemon: JSON-friendly,
    no live objects, ids already linked into the propagated trace.
    """
    return {
        "span_version": SPAN_VERSION,
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_s": start_s,
        "end_s": end_s,
        "duration_s": max(0.0, end_s - start_s),
        "status": status,
        "attributes": dict(attributes or {}),
    }


class Span:
    """One live (started, not yet ended) operation.

    Obtained from :meth:`SpanStore.start`; finish it with :meth:`end`
    (idempotent).  ``attributes`` are plain JSON-friendly scalars.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "status",
        "attributes",
        "_store",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        store: Optional["SpanStore"],
        attributes: Optional[dict[str, Any]] = None,
        start_s: Optional[float] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start_s = time.time() if start_s is None else start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.attributes: dict[str, Any] = dict(attributes or {})
        self._store = store

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def ended(self) -> bool:
        return self.end_s is not None

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (chainable)."""
        self.attributes.update(attributes)
        return self

    def end(self, status: Optional[str] = None, **attributes: Any) -> "Span":
        """Finish the span and hand it to the store (idempotent)."""
        if self.end_s is not None:
            return self
        if attributes:
            self.attributes.update(attributes)
        if status is not None:
            self.status = status
        self.end_s = time.time()
        if self._store is not None:
            self._store._finish(self)
        return self

    def as_dict(self) -> dict[str, Any]:
        end_s = self.end_s if self.end_s is not None else time.time()
        span = make_span(
            self.name,
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.start_s,
            end_s,
            self.attributes,
            self.status,
        )
        span["in_flight"] = self.end_s is None
        span["span_id"] = self.span_id  # keep the live id (make_span copies it)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.end_s is None else f"{self.end_s - self.start_s:.4f}s"
        return f"<Span {self.name} {self.span_id} {state}>"


class SpanStore:
    """Bounded in-memory span sink with trace lookup.

    * ``capacity`` bounds the *finished* ring; zero disables recording
      entirely (spans still carry usable ids, so correlation ids and
      propagation keep working — they just aren't retained).
    * active spans are tracked separately so an in-flight job's partial
      tree is already visible through the trace endpoints.
    * with a ``registry``, the store maintains ``spans.started``,
      ``spans.dropped`` counters and a ``spans.active`` gauge.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"span capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.enabled = capacity > 0
        self._finished: deque[dict[str, Any]] = deque(maxlen=capacity or 1)
        self._active: dict[str, Span] = {}
        self._started = 0
        self._dropped = 0
        self._counter_started = None
        self._counter_dropped = None
        self._gauge_active = None
        if registry is not None:
            self._counter_started = registry.counter("spans.started")
            self._counter_dropped = registry.counter("spans.dropped")
            self._gauge_active = registry.gauge("spans.active")

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        parent: Optional[object] = None,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span.  ``parent`` is a :class:`Span`, a
        :class:`SpanContext`, or None (new root → fresh trace id)."""
        parent_id: Optional[str] = None
        if parent is not None:
            parent_id = parent.span_id  # Span and SpanContext both carry it
            trace_id = trace_id or parent.trace_id
        span = Span(
            name,
            trace_id or new_trace_id(),
            parent_id,
            self if self.enabled else None,
            attributes,
        )
        if self.enabled:
            self._started += 1
            if self._counter_started is not None:
                self._counter_started.inc()
            self._active[span.span_id] = span
            if self._gauge_active is not None:
                self._gauge_active.set(len(self._active))
        return span

    def event(
        self, name: str, parent: Optional[object] = None, **attributes: Any
    ) -> Span:
        """A zero-duration span: a point decision worth a tree node
        (dedup verdicts, cache hits)."""
        return self.start(name, parent=parent, **attributes).end()

    def _finish(self, span: Span) -> None:
        self._active.pop(span.span_id, None)
        if self._gauge_active is not None:
            self._gauge_active.set(len(self._active))
        if len(self._finished) == self.capacity:
            self._dropped += 1
            if self._counter_dropped is not None:
                self._counter_dropped.inc()
        self._finished.append(span.as_dict())

    def ingest(self, spans: Iterable[dict[str, Any]]) -> int:
        """Adopt finished-span payloads produced elsewhere (worker
        processes, a remote daemon).  Returns how many were kept."""
        kept = 0
        if not self.enabled:
            return 0
        for payload in spans:
            if not isinstance(payload, dict) or "span_id" not in payload:
                continue
            if len(self._finished) == self.capacity:
                self._dropped += 1
                if self._counter_dropped is not None:
                    self._counter_dropped.inc()
            self._started += 1
            if self._counter_started is not None:
                self._counter_started.inc()
            self._finished.append(dict(payload))
            kept += 1
        return kept

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._finished) if self.enabled else 0

    @property
    def started(self) -> int:
        return self._started

    @property
    def dropped(self) -> int:
        return self._dropped

    def trace(self, trace_id: str) -> list[dict[str, Any]]:
        """Every retained span of one trace (finished + still-active),
        in start-time order."""
        if not self.enabled:
            return []
        spans = [s for s in self._finished if s["trace_id"] == trace_id]
        spans += [s.as_dict() for s in self._active.values() if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s["start_s"], s["span_id"]))
        return spans

    def recent(
        self,
        limit: int = 100,
        name: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> list[dict[str, Any]]:
        """The newest finished spans, newest first, optionally filtered
        by exact name or name prefix (``"http."``) and/or trace id."""
        if not self.enabled:
            return []
        out: list[dict[str, Any]] = []
        for span in reversed(self._finished):
            if trace_id is not None and span["trace_id"] != trace_id:
                continue
            if name is not None:
                sname = span["name"]
                if sname != name and not (name.endswith(".") and sname.startswith(name)):
                    continue
            out.append(span)
            if len(out) >= limit:
                break
        return out

    def stats(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "retained": len(self),
            "active": len(self._active),
            "started": self._started,
            "dropped": self._dropped,
        }


def span_tree(spans: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Nest flat span payloads into parent-linked trees.

    Returns the list of roots; each node is the span dict plus a
    ``children`` list (start-time order).  A span whose parent is not in
    the input (evicted from the ring, or a foreign trace) becomes a root
    — the tree degrades gracefully instead of dropping data.
    """
    nodes: dict[str, dict[str, Any]] = {}
    ordered: list[dict[str, Any]] = []
    for span in spans:
        node = {**span, "children": []}
        nodes[span["span_id"]] = node
        ordered.append(node)
    roots: list[dict[str, Any]] = []
    for node in ordered:
        parent = nodes.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    key = lambda n: (n["start_s"], n["span_id"])  # noqa: E731
    for node in ordered:
        node["children"].sort(key=key)
    roots.sort(key=key)
    return roots

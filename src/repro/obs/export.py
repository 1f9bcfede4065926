"""Trace export: the streaming JSONL trace, and Chrome traces for viewing.

A :class:`TraceWriter` registers as a :class:`~repro.sim.trace.Tracer`
listener and serializes every recorded :class:`TraceRecord` to one JSON
line as it happens — nothing is buffered in memory, so multi-hour runs
with ``enable("*")`` stay flat.  The file holds two line types:

* ``{"type": "meta", ...}`` — one header line with the export version;
* ``{"type": "record", "t": ..., "cat": ..., "fields": {...}}`` — one
  per trace record.

A trace holds records only; time series over a run are the probe
timeline's job (:mod:`repro.obs.timeline`).  Readers skip any other line
type, so traces from older writers that interleaved ``gauges``
snapshot lines still read.

Round-trip contract: a record whose field values are JSON-representable
scalars (str/int/float/bool/None) reads back **exactly** via
:func:`read_trace`; richer values degrade to their JSON image (tuples
become lists, unknown objects become ``str``).  Property tests lean on
the exact case.

:func:`write_chrome_trace` exports service spans and probe timelines for
viewing in Perfetto; no verb reads such a file back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import TraceRecord, Tracer

__all__ = [
    "TraceWriter",
    "read_trace",
    "iter_trace_lines",
    "trace_summary",
    "TRACE_VERSION",
    "write_chrome_trace",
]

TRACE_VERSION = 1


class TraceWriter:
    """JSONL sink for trace records.

    Use as a context manager, or call :meth:`close` explicitly; each line
    is written as it is produced.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
        self.records_written = 0
        self._write({"type": "meta", "trace_version": TRACE_VERSION})

    def _write(self, obj: dict[str, Any]) -> None:
        self._fh.write(json.dumps(obj, default=str))
        self._fh.write("\n")

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def __call__(self, rec: "TraceRecord") -> None:
        """Tracer-listener entry point: stream one record."""
        self._write(
            {"type": "record", "t": rec.time, "cat": rec.category, "fields": dict(rec.fields)}
        )
        self.records_written += 1

    def attach(self, tracer: "Tracer", *categories: str) -> "TraceWriter":
        """Enable ``categories`` (default everything) and start streaming."""
        tracer.enable(*(categories or ("*",)))
        tracer.add_listener(self)
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def iter_trace_lines(path: Union[str, Path]) -> Iterator[dict[str, Any]]:
    """Yield every parsed line of a JSONL trace file."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_trace(
    path: Union[str, Path], category: Optional[str] = None
) -> Iterator["TraceRecord"]:
    """Yield the trace's records as :class:`TraceRecord`, oldest first."""
    # Imported here, not at module top: sim.trace imports the registry from
    # this package, so a top-level import would be circular.
    from ..sim.trace import TraceRecord

    for obj in iter_trace_lines(path):
        if obj.get("type") != "record":
            continue
        if category is not None and obj["cat"] != category:
            continue
        yield TraceRecord(obj["t"], obj["cat"], tuple(obj["fields"].items()))


def write_chrome_trace(path: Union[str, Path], *, spans=None, timeline=None) -> Path:
    """Write spans and/or a probe timeline as one Chrome trace (Perfetto-loadable).

    The file is for viewing only: its sources stay the timeline JSON and
    the daemon's span endpoints, and no verb reads it back.

    ``spans`` (span objects or their payload dicts) become ``"ph": "X"``
    complete events, with timestamps rebased to the earliest span start
    so the view opens at t=0.  Spans of one trace share a ``tid``, which
    a ``thread_name`` event names once, so every request renders as its
    own track with parent/child nesting as stacked slices.  Ids, status
    and attributes ride in ``args``.

    ``timeline`` (a :class:`~repro.obs.timeline.Timeline` or its dict
    form) becomes one ``"ph": "C"`` counter series per probe (timestamps
    in microseconds, as the format requires).
    """
    process = "repro service" if spans is not None else "repro-wsn run"
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process}}
    ]
    if spans is not None:
        spans = [s.as_dict() if hasattr(s, "as_dict") else dict(s) for s in spans]
        t0 = min((s["start_s"] for s in spans), default=0.0)
        tids: dict[str, int] = {}
        for span in sorted(spans, key=lambda s: (s["trace_id"], s["start_s"])):
            trace_id = span["trace_id"]
            if trace_id not in tids:
                tids[trace_id] = len(tids) + 1
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tids[trace_id],
                        "args": {"name": f"trace {trace_id}"},
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "span",
                    "pid": 1,
                    "tid": tids[trace_id],
                    "ts": (span["start_s"] - t0) * 1e6,
                    "dur": max(span.get("duration_s", 0.0), 0.0) * 1e6,
                    "args": {
                        "trace_id": trace_id,
                        "span_id": span["span_id"],
                        "parent_id": span.get("parent_id"),
                        "status": span.get("status", "ok"),
                        **span.get("attributes", {}),
                    },
                }
            )
    if timeline is not None:
        data = timeline.as_dict() if hasattr(timeline, "as_dict") else dict(timeline)
        times = data.get("times", [])
        for probe in data.get("probes", ()):
            for t, v in zip(times, probe["values"]):
                events.append(
                    {
                        "ph": "C",
                        "name": probe["name"],
                        "pid": 1,
                        "tid": 0,
                        "ts": t * 1e6,
                        "args": {"value": v},
                    }
                )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, default=str))
    return path


def trace_summary(path: Union[str, Path]) -> dict[str, Any]:
    """Aggregate view of a trace file (the ``repro stats`` backend)."""
    categories: dict[str, int] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    records = 0
    version: Optional[int] = None
    for obj in iter_trace_lines(path):
        kind = obj.get("type")
        if kind == "meta":
            version = obj.get("trace_version")
        elif kind == "record":
            records += 1
            categories[obj["cat"]] = categories.get(obj["cat"], 0) + 1
            t = obj["t"]
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
    return {
        "path": str(path),
        "trace_version": version,
        "records": records,
        "time_span": (t_min, t_max),
        "categories": dict(sorted(categories.items(), key=lambda kv: -kv[1])),
    }

"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the single sink for quantitative instrumentation.  Call
sites obtain an *instrument handle* once (``registry.counter("mac.tx")``)
and then update it with plain attribute arithmetic — the hot path is one
dict lookup at registration time and one add per update, cheap enough to
stay always-on in the simulation kernel.

Series model (Prometheus-flavored, but in-process):

* a **name** identifies a family of series of one *kind* (counter, gauge,
  or histogram); registering the same name as a different kind is an
  error;
* **labels** (``registry.counter("radio.tx_class", cls="data")``)
  select one series within the family.  Label cardinality is bounded
  per name (:class:`CardinalityError`) so a typo'd high-cardinality
  label cannot silently eat memory;
* histograms use **fixed bucket edges** chosen at first registration;
  the edge list is part of the family contract and a mismatch is an
  error.

``snapshot()`` renders everything as JSON-friendly dicts (used by run
manifests and the service's ``/metrics`` endpoint); ``counters_flat()``
renders counter series under their flat ``name{k=v}`` keys, which is the
representation :class:`~repro.experiments.metrics.RunMetrics` stores.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter as _FlatCounter
from typing import Any, Iterable, Optional

__all__ = [
    "MetricsRegistry",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "CardinalityError",
    "DEFAULT_BUCKETS",
    "quantile_from_counts",
    "summarize_histogram",
]

#: default histogram edges: latency-ish spread, seconds-oriented
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class CardinalityError(RuntimeError):
    """Too many label-sets registered under one metric name."""


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


def flat_name(name: str, labels: tuple[tuple[str, Any], ...]) -> str:
    """Render ``name{k=v,...}`` (bare ``name`` when unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class CounterMetric:
    """Monotone counter series."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, Any], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc by {n})")
        self.value += n

    def as_sample(self) -> Any:
        return self.value


class GaugeMetric:
    """Point-in-time value series (may go up or down)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, Any], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def as_sample(self) -> Any:
        return self.value


class HistogramMetric:
    """Fixed-bucket histogram series.

    ``buckets`` are ascending upper edges with *less-or-equal* semantics;
    one implicit overflow bucket catches everything above the last edge.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels: tuple[tuple[str, Any], ...], buckets: tuple[float, ...]
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs ascending, non-empty bucket edges")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile from the bucket counts (None if empty)."""
        return quantile_from_counts(self.buckets, self.counts, q)

    def as_sample(self) -> Any:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def quantile_from_counts(
    buckets: Iterable[float], counts: Iterable[int], q: float
) -> Optional[float]:
    """Prometheus-style quantile estimate from fixed-bucket counts.

    Linear interpolation inside the bucket holding the q-th observation:
    the first bucket interpolates from 0, and the overflow bucket has no
    upper edge so it clamps to the last finite edge (a deliberate
    underestimate — the histogram cannot say more).  Returns None for an
    empty histogram.  ``q`` is a fraction in [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    edges = list(buckets)
    tallies = list(counts)
    total = sum(tallies)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0.0
    for i, n in enumerate(tallies):
        if n == 0:
            continue
        if cumulative + n >= rank:
            if i >= len(edges):  # overflow bucket: clamp to last edge
                return edges[-1]
            lo = edges[i - 1] if i > 0 else 0.0
            hi = edges[i]
            return lo + (hi - lo) * max(0.0, rank - cumulative) / n
        cumulative += n
    return edges[-1]


def summarize_histogram(
    sample: dict[str, Any], qs: Iterable[float] = (0.5, 0.95, 0.99)
) -> dict[str, Any]:
    """Percentile summary of a histogram's ``as_sample()`` dict.

    Works on snapshot payloads (e.g. what ``/metrics`` serves), so
    clients can derive p50/p95/p99 without the live instrument.
    """
    count = sample.get("count", 0)
    out: dict[str, Any] = {
        "count": count,
        "sum": sample.get("sum", 0.0),
        "mean": (sample.get("sum", 0.0) / count) if count else 0.0,
    }
    for q in qs:
        out[f"p{round(q * 100):d}"] = quantile_from_counts(
            sample.get("buckets", ()), sample.get("counts", ()), q
        )
    return out


class MetricsRegistry:
    """Instrument factory + store for one simulation run."""

    def __init__(self, max_series_per_name: int = 1024) -> None:
        self.max_series_per_name = max_series_per_name
        self._series: dict[str, dict[tuple, Any]] = {}
        self._kinds: dict[str, str] = {}
        self._hist_buckets: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # registration (get-or-create)
    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: dict[str, Any], factory):
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
            self._series[name] = {}
        elif known != kind:
            raise ValueError(f"metric {name!r} already registered as a {known}, not a {kind}")
        family = self._series[name]
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            if len(family) >= self.max_series_per_name:
                raise CardinalityError(
                    f"metric {name!r} exceeds {self.max_series_per_name} label-sets"
                )
            inst = family[key] = factory(key)
        return inst

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        return self._get_or_create(
            "counter", name, labels, lambda key: CounterMetric(name, key)
        )

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        return self._get_or_create("gauge", name, labels, lambda key: GaugeMetric(name, key))

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels: Any
    ) -> HistogramMetric:
        edges = tuple(buckets) if buckets is not None else None
        registered = self._hist_buckets.get(name)
        if registered is None:
            edges = edges or DEFAULT_BUCKETS
            self._hist_buckets[name] = edges
        elif edges is not None and edges != registered:
            raise ValueError(
                f"histogram {name!r} already registered with buckets {registered}"
            )
        else:
            edges = registered
        return self._get_or_create(
            "histogram", name, labels, lambda key: HistogramMetric(name, key, edges)
        )

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def find(self, name: str, **labels: Any):
        """Existing instrument, or None (never creates)."""
        family = self._series.get(name)
        if family is None:
            return None
        return family.get(_label_key(labels))

    def value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value of one series (0 if absent)."""
        inst = self.find(name, **labels)
        if inst is None:
            return 0
        if isinstance(inst, HistogramMetric):
            raise TypeError(f"{name!r} is a histogram; read .sum/.count/.counts instead")
        return inst.value

    def series(self, name: str) -> list:
        """All instruments of one family (empty list if unregistered)."""
        return list(self._series.get(name, {}).values())

    def counters_flat(self) -> _FlatCounter:
        """All counter series as a flat ``name{labels}`` -> value Counter."""
        out: _FlatCounter = _FlatCounter()
        for name, kind in self._kinds.items():
            if kind != "counter":
                continue
            for key, inst in self._series[name].items():
                out[flat_name(name, key)] = inst.value
        return out

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-friendly dump of every series, grouped by kind."""
        out: dict[str, dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
        bucket = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for name, kind in self._kinds.items():
            dest = out[bucket[kind]]
            for key, inst in self._series[name].items():
                dest[flat_name(name, key)] = inst.as_sample()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = sum(len(f) for f in self._series.values())
        return f"<MetricsRegistry families={len(self._kinds)} series={n}>"

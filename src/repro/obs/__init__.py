"""Observability subsystem: metrics registry, profiling, trace export,
run provenance.

Layered under :mod:`repro.sim` (the tracer's counters are registry
instruments) and consumed by :mod:`repro.experiments` (the runner wires
profiling / export / manifests per :class:`ObsOptions`).  Everything
here is opt-in beyond the always-on counter registry.  The simulator's
event loop has no observability hook, so a run with observability
disabled pays nothing for it per event.
"""

from .audit import (
    AuditFinding,
    Auditor,
    EnergyAttributionChecker,
    GradientAcyclicityChecker,
    InvariantChecker,
    LineageTerminationChecker,
    RxHasTxChecker,
    audit_static,
    audit_trace,
    format_findings,
)
from .diff import diff_artifacts, diff_timelines, format_diff, load_artifact
from .export import (
    TraceWriter,
    iter_trace_lines,
    read_trace,
    trace_summary,
    write_chrome_trace,
)
from .lineage import DeliveryTree, Hop, LineageIndex, format_tree
from .manifest import (
    MANIFEST_VERSION,
    build_figure_manifest,
    build_run_manifest,
    format_manifest,
    load_manifest,
    save_manifest,
)
from .options import TRACE_CATEGORIES, ObsOptions
from .profiler import Profiler, format_profile
from .timeline import (
    TIMELINE_VERSION,
    Timeline,
    TimelineProbe,
    format_timeline,
    install_standard_probes,
    load_timeline,
    save_timeline,
    sparkline,
)
from .registry import (
    DEFAULT_BUCKETS,
    CardinalityError,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    quantile_from_counts,
    summarize_histogram,
)
from .spans import (
    DEFAULT_SPAN_CAPACITY,
    SPAN_VERSION,
    Span,
    SpanContext,
    SpanStore,
    make_span,
    new_span_id,
    new_trace_id,
    span_tree,
)

__all__ = [
    "MetricsRegistry",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "CardinalityError",
    "DEFAULT_BUCKETS",
    "quantile_from_counts",
    "summarize_histogram",
    "SPAN_VERSION",
    "DEFAULT_SPAN_CAPACITY",
    "Span",
    "SpanContext",
    "SpanStore",
    "make_span",
    "span_tree",
    "new_trace_id",
    "new_span_id",
    "Profiler",
    "format_profile",
    "TraceWriter",
    "read_trace",
    "iter_trace_lines",
    "trace_summary",
    "ObsOptions",
    "TRACE_CATEGORIES",
    "build_run_manifest",
    "build_figure_manifest",
    "save_manifest",
    "load_manifest",
    "format_manifest",
    "MANIFEST_VERSION",
    "LineageIndex",
    "DeliveryTree",
    "Hop",
    "format_tree",
    "Auditor",
    "AuditFinding",
    "InvariantChecker",
    "RxHasTxChecker",
    "LineageTerminationChecker",
    "GradientAcyclicityChecker",
    "EnergyAttributionChecker",
    "audit_trace",
    "audit_static",
    "format_findings",
    "diff_artifacts",
    "diff_timelines",
    "format_diff",
    "load_artifact",
    "TIMELINE_VERSION",
    "Timeline",
    "TimelineProbe",
    "install_standard_probes",
    "save_timeline",
    "load_timeline",
    "sparkline",
    "format_timeline",
    "write_chrome_trace",
]

"""Per-run observability switches and the trace-category registry.

:class:`ObsOptions` is how callers (the CLI, notebooks, sweeps) opt a
single :func:`~repro.experiments.runner.run_experiment` into profiling,
trace export, auditing, and manifest emission without widening
:class:`~repro.experiments.config.ExperimentConfig` — the config stays a
pure description of *what* to simulate; observability describes how
closely to watch it.

:data:`TRACE_CATEGORIES` is the single source of truth for structured
trace category names.  Call sites used to be stringly-typed; now every
category a kernel layer may emit is declared here with a one-line
description, ``repro stats --list-categories`` prints the table, and
:meth:`~repro.sim.trace.Tracer.enable` rejects names not declared here
(so a typo'd ``--trace-categories phy.txx`` fails loudly instead of
silently recording nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

__all__ = ["ObsOptions", "TRACE_CATEGORIES"]

#: every trace category the kernel can emit, with what one record means.
#: Grouped by layer; extend this table when adding a ``tracer.record``
#: call site — ``Tracer.enable`` validates against it.
TRACE_CATEGORIES: dict[str, str] = {
    # PHY
    "phy.tx": "one frame put on the air (frame id, src, dst, size, kind, class)",
    "phy.rx": "one clean frame reception at one radio (frame id, node, src)",
    # node lifecycle
    "node.fail": "a node was turned off by the failure driver",
    "node.recover": "a node came back up",
    # data-path lineage (the causal record stream; see repro.obs.lineage)
    "data.gen": "a source sensed one data item (node, interest, src, seq)",
    "data.rx": "an aggregate arrived at a node (keys, accepted subset)",
    "data.tx": "an aggregate left a node along usable gradients (keys, outlets)",
    "data.merge": "an aggregation point flushed >=1 contributions into aggregates",
    "data.deliver": "a sink counted one distinct item (interest, sink, key)",
    # gradient / reinforcement causality
    "gradient.reinforce": "positive reinforcement upgraded a gradient to data strength",
    "gradient.degrade": "negative reinforcement degraded a data gradient",
    # scheme-specific decisions
    "greedy.decision": "a greedy sink's T_p timer chose the lowest-cost neighbor",
}


@dataclass
class ObsOptions:
    """Observability configuration for one run.

    ``trace_path`` streams the enabled record categories to a JSONL
    file; ``audit`` attaches the online invariant auditor
    (:mod:`repro.obs.audit`) for the whole run.  Neither keeps records
    in memory nor adds to the run's counters, so the run's
    :class:`~repro.experiments.metrics.RunMetrics` is the same with or
    without them.
    """

    #: sample the run's stack and report exclusive wall time per layer
    profile: bool = False
    #: stream enabled trace categories to this JSONL file
    trace_path: Optional[Union[str, Path]] = None
    #: categories to enable when tracing ("*" = everything)
    trace_categories: tuple[str, ...] = ("*",)
    #: write the run provenance manifest here
    manifest_path: Optional[Union[str, Path]] = None
    #: attach the online invariant auditor (records findings, not silent corruption)
    audit: bool = False
    #: sample a periodic probe timeline (see :mod:`repro.obs.timeline`)
    timeline: bool = False
    #: sim-seconds between timeline samples (None = duration/10)
    timeline_interval: Optional[float] = None
    #: write the sampled timeline as a JSON artifact here (implies ``timeline``)
    timeline_path: Optional[Union[str, Path]] = None

    def timeline_enabled(self) -> bool:
        """Whether this run samples a timeline (flag or output path)."""
        return self.timeline or self.timeline_path is not None

    def effective_timeline_interval(self, duration: float) -> float:
        """The sampling cadence for a run of ``duration`` sim-seconds."""
        return self.timeline_interval if self.timeline_interval else duration / 10.0

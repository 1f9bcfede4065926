"""Build and execute one packet-level experiment.

Wires the whole stack together — field generation, channel, nodes,
diffusion agents, workload placement, failure driver, warmup energy
snapshot — runs the simulator, and reduces the run to
:class:`~repro.experiments.metrics.RunMetrics`.

Workload selection: the paper picks *specific nodes* as sources ("five
sources are randomly selected from nodes in a 80 m x 80 m square...").
We keep diffusion's attribute matching honest by giving exactly those
nodes a ``target=True`` attribute and having the interest predicate
require it — the interest still floods and matches data-centrically, but
the matched set is the paper's workload.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..aggregation.functions import by_name
from ..core.greedy import GreedyAgent, GreedyEventTruncationAgent
from ..diffusion.agent import DiffusionAgent
from ..diffusion.attributes import AttributeSet, InterestSpec, Op, Predicate
from ..diffusion.baselines import FloodingAgent, OmniscientAgent
from ..diffusion.opportunistic import OpportunisticAgent
from ..trees.git import greedy_incremental_tree
from ..net.channel import model_from_spec
from ..net.fieldcache import cached_field
from ..net.node import Node
from ..net.radio import Channel, RadioParams
from ..net.topology import (
    SensorField,
    corner_sink_node,
    corner_source_nodes,
    event_radius_sources,
    random_source_nodes,
    scattered_sink_nodes,
)
from ..obs import (
    ObsOptions,
    Profiler,
    Timeline,
    TraceWriter,
    build_run_manifest,
    install_standard_probes,
    save_manifest,
    save_timeline,
)
from ..sim import RngRegistry, Simulator, Tracer
from .config import ExperimentConfig, FailureModel
from .metrics import MetricsCollector, RunMetrics

__all__ = [
    "run_experiment",
    "run_observed",
    "ObservedRun",
    "build_world",
    "resolve_kernel",
    "World",
    "FailureDriver",
    "TRACKING_SPEC",
]

#: the tracking interest: task type plus the target flag (see module doc)
TRACKING_SPEC = InterestSpec.of(
    Predicate("task", Op.IS, "tracking"),
    Predicate("target", Op.IS, True),
)

_AGENTS = {
    "greedy": GreedyAgent,
    "opportunistic": OpportunisticAgent,
    "greedy-events": GreedyEventTruncationAgent,
    "flooding": FloodingAgent,
    "omniscient": OmniscientAgent,
}


def _install_omniscient_trees(world: "World") -> None:
    """Compute the GIT per interest and install static parent pointers."""
    graph = world.field.connectivity_graph()
    import networkx as nx

    for sink in world.sinks:
        tree = greedy_incremental_tree(graph, sink, world.sources, order="nearest")
        parents = nx.bfs_predecessors(tree, sink)  # child -> parent toward sink
        parent_of = dict(parents)
        for node_id in tree.nodes:
            agent = world.agents[node_id]
            assert isinstance(agent, OmniscientAgent)
            agent.install_tree(sink, parent_of.get(node_id))
        for source in world.sources:
            agent = world.agents[source]
            assert isinstance(agent, OmniscientAgent)
            agent.activate_source(sink)


class FailureDriver:
    """§5.3 node dynamics: rotate a fresh failed set every epoch."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        model: FailureModel,
        rng: random.Random,
        exempt: frozenset[int],
    ) -> None:
        self.sim = sim
        self.nodes = nodes
        self.model = model
        self.rng = rng
        self.exempt = exempt
        self._down: list[Node] = []
        sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        for node in self._down:
            node.recover()
        eligible = [n for n in self.nodes if n.node_id not in self.exempt]
        k = int(round(self.model.fraction * len(self.nodes)))
        k = min(k, len(eligible))
        self._down = self.rng.sample(eligible, k)
        for node in self._down:
            node.fail()
        self.sim.schedule(self.model.epoch, self._tick)


@dataclass
class World:
    """A fully wired simulation, ready to run (exposed for tests/examples)."""

    config: ExperimentConfig
    sim: Simulator
    tracer: Tracer
    #: the shared medium; ``channel.publish_counters()`` after ``sim.run``
    #: puts the PHY and MAC counters into ``tracer``'s registry
    channel: Channel
    field: SensorField
    nodes: list[Node]
    agents: list[DiffusionAgent]
    sources: list[int]
    sinks: list[int]
    metrics: MetricsCollector
    failure_driver: Optional[FailureDriver]
    #: whether the field came out of the per-process field cache
    field_cache_hit: bool = False

    def close(self) -> None:
        """Unlink the references that make this world cyclic.

        A wired world is a web of cycles: node <-> agent, node <-> MAC
        (the receive callback), MAC <-> radio (the deliver callback),
        radio <-> channel (the channel's radio and MAC tables), each
        sink's and source's timer closures -> agent, and the simulator's
        heap -> bound methods.  Once they are unlinked, refcounting frees
        the world as soon as the caller drops it, instead of a full
        garbage collection some passes later.

        Call it after every artifact has been read: the world cannot run
        afterwards.  A second call does nothing.  What outlives the run
        (the config and its parameters, the cached field) is left alone.
        """
        self.sim.clear()
        for node in self.nodes:
            node.protocol = None
            node.mac.receive_callback = None
            node.radio.deliver = node.radio.channel = None
        for agent in self.agents:
            agent.node = None  # type: ignore[assignment]
            agent.interest_timers.clear()
            for state in agent.source_for.values():
                state.data_timer = state.exploratory_timer = None


def _place_sources(
    cfg: ExperimentConfig, field: SensorField, rng: random.Random, sinks: set[int]
) -> list[int]:
    if cfg.source_placement == "corner":
        return corner_source_nodes(field, cfg.n_sources, rng, exclude=sinks)
    if cfg.source_placement == "random":
        return random_source_nodes(field, cfg.n_sources, rng, exclude=sinks)
    return event_radius_sources(field, cfg.n_sources, radius=cfg.range_m, rng=rng, exclude=sinks)


def resolve_kernel(kernel: str, n_nodes: int) -> str:
    """Name the PHY kernel a run uses: always ``"scalar"``.

    Compatibility check for callers that still pass a kernel name
    (``"auto"`` or ``"scalar"``); the vectorized kernel was removed
    (DESIGN.md §13), so any other name raises :class:`ValueError`.
    ``n_nodes`` no longer affects the choice.
    """
    if kernel not in ("auto", "scalar"):
        raise ValueError(
            f"unknown PHY kernel {kernel!r}: the vector kernel was removed; "
            "the scalar fan-out is the only kernel ('auto' and 'scalar' select it)"
        )
    return "scalar"


def build_world(cfg: ExperimentConfig) -> World:
    """Construct the full simulation for one config (without running it).

    The sensor field is memoized per process (see
    :mod:`repro.net.fieldcache`): paired sweeps rebuild the same
    ``(seed, n, field_size, range_m)`` geometry once per scheme, and the
    cache removes that duplicate work without touching any RNG stream.
    Clear :func:`~repro.net.fieldcache.default_field_cache` to force a
    fresh build.
    """
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    rngs = RngRegistry(cfg.seed)
    field, cache_hit = cached_field(
        cfg.n_nodes,
        cfg.seed,
        field_size=cfg.field_size,
        range_m=cfg.range_m,
    )
    # The channel model is built from the config's channel block; field
    # geometry above is always drawn on the nominal disc range_m, so disc
    # and pathloss runs of one seed share the exact same field/workload.
    channel = Channel(
        sim,
        tracer,
        RadioParams(range_m=cfg.range_m),
        model=model_from_spec(cfg.channel, cfg.range_m),
    )
    nodes = [
        Node(i, x, y, sim, channel, tracer, rngs)
        for i, (x, y) in enumerate(field.positions)
    ]

    placement_rng = rngs.stream("placement")
    if cfg.n_sinks == 1:
        sinks = [corner_sink_node(field, placement_rng)]
    else:
        sinks = scattered_sink_nodes(field, cfg.n_sinks, placement_rng)
    sources = _place_sources(cfg, field, placement_rng, set(sinks))

    metrics = MetricsCollector(cfg.warmup)
    aggfn = by_name(cfg.aggregation)
    agent_cls = _AGENTS[cfg.scheme]
    agents = [agent_cls(node, cfg.diffusion, aggfn, metrics) for node in nodes]

    for src in sources:
        node = nodes[src]
        agents[src].attributes = AttributeSet(
            {"task": "tracking", "x": node.x, "y": node.y, "target": True}
        )
    for sink in sinks:
        agents[sink].attach_sink(interest_id=sink, spec=TRACKING_SPEC)

    driver = None
    if cfg.failures is not None:
        driver = FailureDriver(
            sim, nodes, cfg.failures, rngs.stream("failures"), exempt=frozenset(sinks)
        )

    world = World(
        cfg, sim, tracer, channel, field, nodes, agents, sources, sinks, metrics, driver,
        field_cache_hit=cache_hit,
    )
    if cfg.scheme == "omniscient":
        _install_omniscient_trees(world)
    return world


@dataclass
class ObservedRun:
    """One run's metrics plus the observability artifacts it produced."""

    metrics: RunMetrics
    wall_time_s: float
    #: :meth:`~repro.obs.profiler.Profiler.report` dict when run with
    #: ``obs.profile=True`` (None otherwise)
    profile: Optional[dict] = None
    manifest: Optional[dict] = None
    manifest_path: Optional[Path] = None
    trace_path: Optional[Path] = None
    #: simulator totals for throughput accounting (repro bench)
    events_processed: int = 0
    cancelled_skipped: int = 0
    #: whether the sensor field came from the per-process cache
    field_cache_hit: bool = False
    #: :meth:`~repro.obs.audit.Auditor.report` dict when run with
    #: ``obs.audit=True`` (None otherwise)
    audit: Optional[dict] = None
    #: the sampled probe :class:`~repro.obs.timeline.Timeline` when run
    #: with ``obs.timeline``/``obs.timeline_path`` (None otherwise)
    timeline: Optional[Timeline] = None
    #: where the timeline JSON artifact was written (``obs.timeline_path``)
    timeline_path: Optional[Path] = None


def run_experiment(cfg: ExperimentConfig, obs: Optional[ObsOptions] = None) -> RunMetrics:
    """Run one experiment end to end and reduce it to metrics.

    Stored runs go through :func:`~repro.experiments.sweeps.run_configs`
    with ``store=``, which probes the store first and persists a fresh
    result.
    """
    return run_observed(cfg, obs).metrics


def run_observed(
    cfg: ExperimentConfig,
    obs: Optional[ObsOptions] = None,
    kernel: str = "auto",
) -> ObservedRun:
    """Run one experiment with optional profiling/tracing/provenance.

    With ``obs=None`` this is exactly :func:`run_experiment`; otherwise
    the requested instruments are attached before the run and their
    artifacts (profile report, JSONL trace, ``manifest.json``) are
    collected afterwards.

    ``kernel`` is kept for callers that still name one; it is checked by
    :func:`resolve_kernel` and otherwise ignored.

    The world is closed (:meth:`World.close`) once its artifacts have
    been read, also when the run raises, so a finished run leaves no
    cyclic garbage behind.
    """
    resolve_kernel(kernel, cfg.n_nodes)
    world = build_world(cfg)
    try:
        return _observe(world, obs)
    finally:
        world.close()


def _observe(world: World, obs: Optional[ObsOptions]) -> ObservedRun:
    """Run a freshly built world under ``obs`` and read its artifacts."""
    cfg = world.config
    sim, tracer = world.sim, world.tracer

    writer: Optional[TraceWriter] = None
    auditor = None
    timeline: Optional[Timeline] = None
    if obs is not None:
        if obs.audit:
            from ..obs.audit import Auditor

            d = cfg.diffusion
            auditor = Auditor(
                data_timeout=max(d.gradient_timeout, 2.2 * d.exploratory_interval)
            )
            auditor.attach(tracer)
        if obs.trace_path is not None:
            writer = TraceWriter(obs.trace_path)
            writer.attach(tracer, *obs.trace_categories)
        if obs.timeline_enabled():
            timeline = Timeline(obs.effective_timeline_interval(cfg.duration))
            install_standard_probes(
                timeline,
                sim=sim,
                nodes=world.nodes,
                agents=world.agents,
                collector=world.metrics,
                tracer=tracer,
            )
            timeline.attach(sim, cfg.duration)

    snapshots: list[tuple[float, float]] = []
    class_snapshots: list[dict[str, tuple[float, float]]] = []

    def take_snapshot() -> None:
        snapshots.extend((n.energy.tx_time, n.energy.rx_time) for n in world.nodes)
        class_snapshots.extend(n.energy.class_times() for n in world.nodes)

    sim.schedule(cfg.warmup, take_snapshot)
    profiler = Profiler(sim) if obs is not None and obs.profile else None
    t0 = time.perf_counter()
    try:
        with profiler or nullcontext():
            sim.run(until=cfg.duration)
    finally:
        if timeline is not None:
            # guaranteed closing sample at the horizon (sim.now == duration)
            timeline.finalize(sim.now)
        if writer is not None:
            writer.close()
    wall_time = time.perf_counter() - t0

    if len(snapshots) != len(world.nodes):
        # The warmup snapshot never fired (or fired partially): energy
        # accounting would silently report 0.0.  Config validation rejects
        # warmup >= duration, so reaching this means the scheduler was
        # misused — fail loudly instead of reporting zero-energy runs.
        raise RuntimeError(
            f"warmup energy snapshot incomplete ({len(snapshots)} of "
            f"{len(world.nodes)} nodes) — warmup={cfg.warmup} duration={cfg.duration}"
        )

    window = cfg.duration - cfg.warmup
    total_energy = 0.0
    for node, (tx0, rx0) in zip(world.nodes, snapshots):
        meter = node.energy
        dtx = meter.tx_time - tx0
        drx = meter.rx_time - rx0
        energy = meter.params.tx_power_w * dtx + meter.params.rx_power_w * drx
        if cfg.include_idle:
            energy += meter.params.idle_power_w * max(0.0, window - dtx - drx)
        total_energy += energy

    # Per-class breakdown over the same post-warmup window.  Kept as a
    # second pass so the total_energy loop above — whose float summation
    # order the reproducibility contract freezes — stays untouched; the
    # class sums match it within 1e-9 (the auditor checks this).
    energy_by_class: dict[str, float] = {}
    for node, (tx0, rx0), cls0 in zip(world.nodes, snapshots, class_snapshots):
        meter = node.energy
        txp, rxp = meter.params.tx_power_w, meter.params.rx_power_w
        for cls, (txt, rxt) in meter.class_times().items():
            tx0c, rx0c = cls0.get(cls, (0.0, 0.0))
            delta = txp * (txt - tx0c) + rxp * (rxt - rx0c)
            if delta:
                energy_by_class[cls] = energy_by_class.get(cls, 0.0) + delta
        if cfg.include_idle:
            dtx = meter.tx_time - tx0
            drx = meter.rx_time - rx0
            idle = meter.params.idle_power_w * max(0.0, window - dtx - drx)
            energy_by_class["idle"] = energy_by_class.get("idle", 0.0) + idle
    energy_by_class = {cls: energy_by_class[cls] for cls in sorted(energy_by_class)}

    # The PHY and MAC count in plain ints during the run; publish them
    # so they appear in the counters snapshot below.
    world.channel.publish_counters()

    metrics = world.metrics
    distinct = metrics.total_distinct_delivered()
    sent = sum(metrics.sent.values())
    if distinct > 0:
        avg_energy = total_energy / cfg.n_nodes / distinct
        avg_delay = metrics.average_delay() or 0.0
    else:
        # Degenerate run (nothing delivered): report per-node energy over
        # the window and the full window as "delay" so failures are loud.
        avg_energy = total_energy / cfg.n_nodes
        avg_delay = window

    # Lifetime scalars are computed from event-level state (never from
    # sampled timelines), so they are bit-identical whether or not a
    # timeline was attached, and across serial/parallel sweeps.
    first_deaths = [
        n.first_down_at for n in world.nodes if n.first_down_at is not None
    ]
    run_metrics = RunMetrics(
        scheme=cfg.scheme,
        n_nodes=cfg.n_nodes,
        seed=cfg.seed,
        avg_dissipated_energy=avg_energy,
        avg_delay=avg_delay,
        delivery_ratio=min(1.0, metrics.delivery_ratio()),
        total_energy_j=total_energy,
        distinct_delivered=distinct,
        events_sent=sent,
        mean_degree=world.field.mean_degree(range_m=world.channel.model.reach_m),
        counters=dict(tracer.counters),
        energy_by_class=energy_by_class,
        time_to_first_death=min(first_deaths) if first_deaths else None,
        time_to_half_delivery=metrics.time_to_half_delivery(),
    )

    audit_report: Optional[dict] = None
    if auditor is not None:
        auditor.finalize(world.nodes)
        audit_report = auditor.report()

    observed = ObservedRun(
        metrics=run_metrics,
        wall_time_s=wall_time,
        profile=profiler.report() if profiler is not None else None,
        trace_path=Path(obs.trace_path) if obs is not None and obs.trace_path else None,
        events_processed=sim.events_processed,
        cancelled_skipped=sim.cancelled_skipped,
        field_cache_hit=world.field_cache_hit,
        audit=audit_report,
        timeline=timeline,
    )
    if timeline is not None and obs is not None and obs.timeline_path is not None:
        observed.timeline_path = save_timeline(timeline, obs.timeline_path)
    if obs is not None and obs.manifest_path is not None:
        observed.manifest = build_run_manifest(
            cfg,
            run_metrics,
            wall_time_s=wall_time,
            sim=sim,
            registry=tracer.registry,
            profile_report=observed.profile,
            trace_path=observed.trace_path,
            field_info={
                "redraws": world.field.redraws,
                "cache_hit": world.field_cache_hit,
            },
            audit=audit_report,
            timeline=(
                timeline.accounting(observed.timeline_path)
                if timeline is not None
                else None
            ),
        )
        observed.manifest_path = save_manifest(observed.manifest, obs.manifest_path)
    return observed

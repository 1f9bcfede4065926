"""The evaluation figures: one table, one planner, one runner.

Every figure is one row of :data:`FIGURES` — title, x label, default
sweep, cell labels and config builder — for the paper's figs 5-10 and two
beyond-paper studies (``large-density``, ``channel-density``).
:func:`figure_plan` turns a row into the deterministic run plan of a
:class:`FigurePlan`, and :func:`run_figure_plan` runs it into a
:class:`FigureResult` whose rows are the series the paper plots: for every
sweep value and scheme, the three panel metrics — (a) average dissipated
energy, (b) average delay, (c) distinct-event delivery ratio::

    result = run_figure_plan(figure_plan("fig5", fast()), workers=4)

:func:`git_vs_spt_table` computes the GIT/SPT related-work table.

See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for measured
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..diffusion.agent import DiffusionParams
from ..net.channel import ChannelSpec
from ..trees.models import savings_study
from .config import (
    DENSITY_SWEEP,
    SINK_SWEEP,
    SOURCE_SWEEP,
    ExperimentConfig,
    FailureModel,
    Profile,
)
from .sweeps import (
    COMPARISON_SCHEMES,
    CellSummary,
    StoreArg,
    cell_seed,
    paired_plan,
    run_configs,
    summarize_paired,
)

__all__ = [
    "FigureResult",
    "FigurePlan",
    "figure_plan",
    "figure_from_results",
    "run_figure_plan",
    "figure_cell_config",
    "git_vs_spt_table",
    "FIGURES",
]


@dataclass(frozen=True)
class FigureResult:
    """All cells of one figure, plus presentation metadata."""

    figure_id: str
    title: str
    x_label: str
    cells: tuple[CellSummary, ...]

    def xs(self) -> list[float]:
        return sorted({c.x for c in self.cells})

    def series(self, scheme: str) -> list[CellSummary]:
        return sorted((c for c in self.cells if c.scheme == scheme), key=lambda c: c.x)

    def cell(self, scheme: str, x: float) -> CellSummary:
        for c in self.cells:
            if c.scheme == scheme and c.x == x:
                return c
        raise KeyError((scheme, x))

    def energy_savings(self, x: float) -> float:
        """Fractional energy savings of greedy over opportunistic at x."""
        opp = self.cell("opportunistic", x)
        greedy = self.cell("greedy", x)
        if opp.energy == 0:
            return 0.0
        return 1.0 - greedy.energy / opp.energy

    def max_energy_savings(self) -> float:
        return max(self.energy_savings(x) for x in self.xs())


@dataclass(frozen=True)
class FigurePlan:
    """The deterministic run plan of one figure, before execution.

    Splitting plan construction (:func:`figure_plan`) from execution
    (:func:`run_figure_plan`) lets any executor — the in-process sweep
    machinery or the :mod:`repro.service` job queue — run the exact same
    configs and reassemble a bit-identical :class:`FigureResult` via
    :func:`figure_from_results`.
    """

    figure_id: str
    title: str
    x_label: str
    #: ordered ``(cell label, sweep value, config)`` triples
    plan: tuple[tuple[str, object, ExperimentConfig], ...]

    def configs(self) -> list[ExperimentConfig]:
        return [cfg for _label, _x, cfg in self.plan]


#: ``make_config(cell label, x, seed)``: one cell member's run config
_MakeConfig = Callable[[str, object, int], ExperimentConfig]


@dataclass(frozen=True)
class _Figure:
    """One row of :data:`FIGURES`."""

    #: ``{n}`` stands for the field size of the source/sink sweeps
    title: str
    x_label: str
    #: the default sweep values
    xs: tuple
    #: ``configs(profile, n_nodes, channel)`` -> ``make_config(label, x, seed)``
    configs: Callable[[Profile, int, Optional[ChannelSpec]], _MakeConfig]
    labels: tuple[str, ...] = COMPARISON_SCHEMES
    #: one of the paper's §5 figures (``repro all`` runs these)
    paper: bool = True


def _base(profile: Profile, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        scheme="greedy",
        n_nodes=50,
        seed=0,
        duration=profile.duration,
        warmup=profile.warmup,
        diffusion=profile.diffusion,
    )
    return replace(cfg, **overrides) if overrides else cfg


def _swept(field: str, base: Callable[[Profile, int], ExperimentConfig]):
    """A row's config builder: each cell sets ``field`` to its sweep value.

    ``base(profile, n_nodes)`` is the row's base config; ``channel``, if
    given, replaces its channel in every cell.
    """

    def configs(
        profile: Profile, n_nodes: int, channel: Optional[ChannelSpec]
    ) -> _MakeConfig:
        cfg = base(profile, n_nodes)
        if channel is not None:
            cfg = replace(cfg, channel=channel)

        def make_config(scheme: str, x, seed: int) -> ExperimentConfig:
            return replace(cfg, scheme=scheme, seed=seed, **{field: x})

        return make_config

    return configs


def _large_base(profile: Profile, n_nodes: int) -> ExperimentConfig:
    """The large-field study's runs: 10 s (4 s warm-up) with a 6 s
    exploratory interval on an 800 m field, whatever the profile —
    thousands of nodes at a profile's durations would take hours.  The
    profile still supplies the trial count."""
    return _base(
        profile,
        duration=10.0,
        warmup=4.0,
        field_size=800.0,
        diffusion=DiffusionParams(exploratory_interval=6.0),
    )


#: the pathloss spec the channel-density figure compares against disc
#: (defaults: same nominal ~40 m reach, SINR capture on, one band)
CHANNEL_STUDY_SPEC = ChannelSpec(model="pathloss")


def _channel_configs(
    profile: Profile, n_nodes: int, channel: Optional[ChannelSpec]
) -> _MakeConfig:
    """Fig 5's density sweep on disc and on pathloss.

    Cells are labeled ``<scheme>@<channel>``.  :func:`cell_seed` ignores
    the label and geometry is always drawn on the nominal disc range, so
    for a given (density, trial) all four series share one field, its
    sources and its sink: the deltas are pure channel effects (SINR
    capture resolving overlaps vs disc corruption), not field resampling
    noise.  ``channel`` replaces the pathloss side's spec
    (:data:`CHANNEL_STUDY_SPEC`) and must be a pathloss spec.
    """
    spec = CHANNEL_STUDY_SPEC if channel is None else channel
    if spec.model != "pathloss":
        raise ValueError("the channel-density study needs a pathloss spec")
    base = _base(profile)
    disc = ChannelSpec()

    def make_config(label: str, x, seed: int) -> ExperimentConfig:
        scheme, _, chan = label.partition("@")
        ch = disc if chan == "disc" else spec
        return replace(base, scheme=scheme, seed=seed, n_nodes=x, channel=ch)

    return make_config


#: every figure by id.  Figs 8-10 sweep on a fixed field, by default the
#: paper's densest (``DENSITY_SWEEP[-1]``, 350 nodes).
FIGURES: dict[str, _Figure] = {
    # the headline: 5 corner sources, 1 corner sink, perfect aggregation
    "fig5": _Figure(
        "Greedy vs opportunistic aggregation across density",
        "nodes", DENSITY_SWEEP,
        _swept("n_nodes", lambda profile, n: _base(profile)),
    ),
    # fig 5's sweep under rotating 20% node failures (§5.3)
    "fig6": _Figure(
        "Impact of node failures (20% down, rotating epochs)",
        "nodes", DENSITY_SWEEP,
        _swept("n_nodes", lambda profile, n: _base(
            profile, failures=FailureModel(fraction=0.2, epoch=profile.failure_epoch)
        )),
    ),
    # random source placement (§5.4: savings shrink to ~30%)
    "fig7": _Figure(
        "Impact of random source placement",
        "nodes", DENSITY_SWEEP,
        _swept("n_nodes", lambda profile, n: _base(profile, source_placement="random")),
    ),
    # 1-5 sinks, the first at the corner, the rest scattered
    "fig8": _Figure(
        "Impact of the number of sinks ({n} nodes)",
        "sinks", SINK_SWEEP,
        _swept("n_sinks", lambda profile, n: _base(profile, n_nodes=n)),
    ),
    # 2-14 corner sources
    "fig9": _Figure(
        "Impact of the number of sources ({n} nodes)",
        "sources", SOURCE_SWEEP,
        _swept("n_sources", lambda profile, n: _base(profile, n_nodes=n)),
    ),
    # fig 9's sweep under linear aggregation (header savings only)
    "fig10": _Figure(
        "Impact of linear aggregation ({n} nodes)",
        "sources", SOURCE_SWEEP,
        _swept("n_sources", lambda profile, n: _base(
            profile, n_nodes=n, aggregation="linear"
        )),
    ),
    # fig 5's question past the paper's 350 nodes: 2 000-5 000 nodes on
    # an 800 m field (mean radio degree ~16..39)
    "large-density": _Figure(
        "Density vs delivered data at scale (800 m field)",
        "nodes", (2000, 3500, 5000),
        _swept("n_nodes", _large_base),
        paper=False,
    ),
    "channel-density": _Figure(
        "Density sweep under disc vs pathloss/SINR channels",
        "nodes", DENSITY_SWEEP,
        _channel_configs,
        labels=tuple(
            f"{scheme}@{chan}"
            for chan in ("disc", "pathloss")
            for scheme in COMPARISON_SCHEMES
        ),
        paper=False,
    ),
}


def figure_plan(
    figure_id: str,
    profile: Profile,
    trials: Optional[int] = None,
    channel: Optional[ChannelSpec] = None,
    n_nodes: int = DENSITY_SWEEP[-1],
    xs: Optional[Sequence] = None,
) -> FigurePlan:
    """Build one figure's deterministic :class:`FigurePlan`.

    The plan enumerates the figure's ``(cell label, x, config)`` triples
    with one seed per ``(x, trial)`` shared by all its cells, so executing
    its configs anywhere and reassembling with :func:`figure_from_results`
    reproduces the figure bit for bit.  ``n_nodes`` fixes the field of
    the source/sink sweeps (figs 8-10); ``xs`` overrides the default sweep
    values; ``channel`` replaces every cell's channel (the pathloss side's
    for ``channel-density``).
    """
    try:
        fig = FIGURES[figure_id]
    except KeyError:
        raise KeyError(f"unknown figure {figure_id!r} (have {sorted(FIGURES)})") from None
    make_config = fig.configs(profile, n_nodes, channel)
    plan = paired_plan(
        profile, fig.xs if xs is None else xs, make_config, trials=trials,
        schemes=fig.labels,
    )
    return FigurePlan(figure_id, fig.title.format(n=n_nodes), fig.x_label, tuple(plan))


def figure_from_results(fplan: FigurePlan, results: Sequence) -> FigureResult:
    """Assemble a :class:`FigureResult` from a plan's run outcomes.

    ``results`` is the order-preserving outcome list for
    ``fplan.plan`` (``RunMetrics``, or ``RunFailure`` placeholders for
    runs that failed — those cells summarize their survivors).
    """
    cells = summarize_paired(fplan.plan, results)
    return FigureResult(fplan.figure_id, fplan.title, fplan.x_label, tuple(cells))


def run_figure_plan(
    fplan: FigurePlan,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
) -> FigureResult:
    """Run a :class:`FigurePlan` through :func:`run_configs` into its figure."""
    results = run_configs(
        fplan.configs(), workers=workers, progress=progress, store=store
    )
    return figure_from_results(fplan, results)


def figure_cell_config(
    figure_id: str,
    profile: Profile,
    scheme: str,
    x,
    trial: int = 0,
    channel: Optional[ChannelSpec] = None,
) -> ExperimentConfig:
    """Rebuild the exact config of one ``(scheme, x, trial)`` figure cell.

    Builds the cell as :func:`figure_plan` does with its defaults and
    ``channel``, so ``repro timeline <figure-manifest> --cell greedy@150``
    can re-run one cell bit-identically.  ``scheme`` must be one of the
    figure's cell labels (``greedy@pathloss`` for ``channel-density``); any
    other raises :class:`ValueError`.  Figure manifests persist cell ``x`` as a float;
    integral values are coerced back to int before seeding because
    ``cell_seed`` hashes the *formatted* x (``"cell:150:0"`` and
    ``"cell:150.0:0"`` are different streams).
    """
    try:
        fig = FIGURES[figure_id]
    except KeyError:
        raise KeyError(f"unknown figure {figure_id!r} (have {sorted(FIGURES)})") from None
    if scheme not in fig.labels:
        raise ValueError(
            f"{figure_id} has no {scheme!r} cells (have {', '.join(fig.labels)})"
        )
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    make_config = fig.configs(profile, DENSITY_SWEEP[-1], channel)
    return make_config(scheme, x, cell_seed(0, x, trial))


def git_vs_spt_table(
    n_nodes: Sequence[int] = (100, 200, 350),
    n_sources: int = 5,
    trials: int = 10,
    seed: int = 7,
) -> list[dict]:
    """Related-work table (§1/§5.4): GIT-over-SPT transmission savings
    under the abstract event-radius / random-sources models versus the
    paper's corner placement."""
    rows = []
    for placement in ("event-radius", "random-sources", "corner"):
        for n in n_nodes:
            rows.append(savings_study(placement, n, n_sources, trials, seed))
    return rows

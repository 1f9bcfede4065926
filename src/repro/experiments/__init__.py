"""Evaluation harness: configs, metrics, the runner, sweeps, figures,
persistence, and the resumable run store.

Reproduces §5 of the paper: the three metrics, the density/source/sink
sweeps, the failure study, and the aggregation-function sensitivity —
plus the GIT-vs-SPT abstract comparison from related work.  Results
persist two ways: saved figures, one manifest file each
(:mod:`~repro.experiments.persistence`), and the per-run
content-addressed store (:mod:`~repro.experiments.store`) that makes
interrupted sweeps resumable.
"""

from .config import (
    DENSITY_SWEEP,
    PROFILES,
    SCHEMES,
    SINK_SWEEP,
    SOURCE_SWEEP,
    ExperimentConfig,
    FailureModel,
    Profile,
    config_from_dict,
    fast,
    paper,
    smoke,
)
from .figures import (
    FIGURES,
    FigureResult,
    figure_cell_config,
    figure_plan,
    git_vs_spt_table,
    run_figure_plan,
)
from .inspect import (
    TreeStats,
    active_tree,
    compare_with_ideal,
    delivery_timeline,
    tree_stats,
)
from .metrics import MetricsCollector, RunMetrics
from .persistence import (
    build_figure_manifest,
    build_run_manifest,
    export_figure_csv,
    load_figure_json,
    load_manifest,
    save_manifest,
)
from .report import (
    format_channel_figure,
    format_figure,
    format_table,
    format_tree_table,
)
from .store import RunStore, StoreStats, canonical_json, open_store, run_key
from .runner import (
    FailureDriver,
    ObservedRun,
    World,
    build_world,
    run_experiment,
    run_observed,
)
from .bench import bench_configs, format_bench, run_bench, save_bench
from .sweeps import (
    CellSummary,
    RunExecutor,
    RunFailure,
    SweepError,
    cell_seed,
    run_configs,
)

__all__ = [
    "ExperimentConfig",
    "FailureModel",
    "Profile",
    "config_from_dict",
    "paper",
    "fast",
    "smoke",
    "PROFILES",
    "SCHEMES",
    "DENSITY_SWEEP",
    "SOURCE_SWEEP",
    "SINK_SWEEP",
    "MetricsCollector",
    "RunMetrics",
    "run_experiment",
    "run_observed",
    "ObservedRun",
    "build_world",
    "World",
    "FailureDriver",
    "CellSummary",
    "RunFailure",
    "SweepError",
    "RunExecutor",
    "run_configs",
    "cell_seed",
    "bench_configs",
    "run_bench",
    "save_bench",
    "format_bench",
    "FigureResult",
    "figure_plan",
    "run_figure_plan",
    "git_vs_spt_table",
    "figure_cell_config",
    "FIGURES",
    "format_figure",
    "format_channel_figure",
    "format_table",
    "format_tree_table",
    "TreeStats",
    "active_tree",
    "tree_stats",
    "compare_with_ideal",
    "delivery_timeline",
    "load_figure_json",
    "export_figure_csv",
    "save_manifest",
    "load_manifest",
    "build_run_manifest",
    "build_figure_manifest",
    "RunStore",
    "StoreStats",
    "open_store",
    "run_key",
    "canonical_json",
]

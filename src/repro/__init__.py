"""repro — greedy aggregation trees for directed diffusion in WSNs.

A from-scratch Python reproduction of *"Impact of Network Density on Data
Aggregation in Wireless Sensor Networks"* (Intanagonwiwat, Estrin,
Govindan, Heidemann — ICDCS 2002): the full packet-level simulation stack
(DES kernel, CSMA/CA MAC, disc radio with collisions and the Sensoria
energy profile), the directed-diffusion substrate, the opportunistic
baseline, the greedy-incremental-tree aggregation scheme, centralized
tree references (SPT/GIT/Steiner), and the complete §5 evaluation
harness.

Quick start::

    from repro import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(scheme="greedy", n_nodes=150, seed=1,
                           duration=40.0, warmup=15.0)
    print(run_experiment(cfg))

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from .aggregation import (
    AggregationBuffer,
    LinearAggregation,
    NoAggregation,
    PerfectAggregation,
    greedy_weighted_set_cover,
)
from .core import GreedyAgent, setcover_victims
from .diffusion import (
    DiffusionAgent,
    DiffusionParams,
    OpportunisticAgent,
    tracking_task,
)
from .experiments import (
    DENSITY_SWEEP,
    ExperimentConfig,
    FailureModel,
    FigureResult,
    Profile,
    RunMetrics,
    RunStore,
    fast,
    figure_plan,
    format_figure,
    git_vs_spt_table,
    paper,
    run_experiment,
    run_figure_plan,
    run_key,
    smoke,
)
from .net import EnergyParams, MacParams, Node, RadioParams, SensorField, generate_field
from .obs import (
    MetricsRegistry,
    ObsOptions,
    Profiler,
    TraceWriter,
    format_profile,
    read_trace,
)
from .sim import RngRegistry, Simulator, Tracer
from .trees import greedy_incremental_tree, shortest_path_tree, steiner_tree_kmb, tree_cost

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation kernel
    "Simulator",
    "Tracer",
    "RngRegistry",
    # observability
    "MetricsRegistry",
    "ObsOptions",
    "Profiler",
    "TraceWriter",
    "read_trace",
    "format_profile",
    # network substrate
    "Node",
    "SensorField",
    "generate_field",
    "EnergyParams",
    "MacParams",
    "RadioParams",
    # diffusion + schemes
    "DiffusionAgent",
    "DiffusionParams",
    "OpportunisticAgent",
    "GreedyAgent",
    "tracking_task",
    # aggregation
    "AggregationBuffer",
    "PerfectAggregation",
    "LinearAggregation",
    "NoAggregation",
    "greedy_weighted_set_cover",
    "setcover_victims",
    # trees
    "shortest_path_tree",
    "greedy_incremental_tree",
    "steiner_tree_kmb",
    "tree_cost",
    # experiments
    "ExperimentConfig",
    "FailureModel",
    "Profile",
    "paper",
    "fast",
    "smoke",
    "run_experiment",
    "RunMetrics",
    "RunStore",
    "run_key",
    "FigureResult",
    "figure_plan",
    "run_figure_plan",
    "git_vs_spt_table",
    "format_figure",
    "DENSITY_SWEEP",
]

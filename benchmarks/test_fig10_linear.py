"""Figure 10: impact of the linear aggregation function (§5.4).

Fig 9's source sweep with z(S) = 28·d + 36 instead of perfect
aggregation.  Expected shape: energy per event rises versus perfect
aggregation (only header savings), and the penalty grows with the number
of sources/data items; greedy's savings shrink relative to fig 9.
"""

import os

from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.report import format_figure

from .conftest import run_figure_once

SOURCES = (2, 5, 10)


def test_fig10_linear_aggregation(benchmark, profile, trials, densities):
    n_nodes = int(os.environ.get("REPRO_FIG10_NODES", str(max(densities))))
    result = run_figure_once(
        benchmark,
        run_figure_plan,
        figure_plan("fig10", profile, trials=trials, xs=SOURCES, n_nodes=n_nodes),
    )
    print()
    print(format_figure(result))

    # Compare against paired fig-9 cells (same seeds, perfect aggregation).
    perfect = run_figure_plan(
        figure_plan(
            "fig9", profile, trials=trials, xs=(min(SOURCES), max(SOURCES)), n_nodes=n_nodes
        )
    )
    lo, hi = min(SOURCES), max(SOURCES)

    # Linear aggregation costs more than perfect at the largest source
    # count ("this linear aggregation is lossless but not
    # energy-efficient").
    assert result.cell("greedy", hi).energy > perfect.cell("greedy", hi).energy

    # "The adverse impact of the inefficient aggregation function becomes
    # more evident with the increased number of sources": the
    # linear/perfect penalty ratio grows across the sweep.
    penalty_lo = result.cell("greedy", lo).energy / perfect.cell("greedy", lo).energy
    penalty_hi = result.cell("greedy", hi).energy / perfect.cell("greedy", hi).energy
    assert penalty_hi > penalty_lo

    for cell in result.cells:
        assert cell.ratio > 0.75

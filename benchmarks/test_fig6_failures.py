"""Figure 6: impact of node failures (§5.3).

Fig 5's sweep under rotating dynamics: at any instant 20% of nodes are
off, a fresh set every epoch, no settling time.  Expected shape: delivery
drops well below the static case for both schemes (the paper calls the
conditions "fairly adverse"); energy per delivered event rises.
"""

from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.report import format_figure

from .conftest import run_figure_once


def test_fig6_failures(benchmark, profile, trials, densities):
    result = run_figure_once(
        benchmark, run_figure_plan, figure_plan("fig6", profile, trials=trials, xs=densities)
    )
    print()
    print(format_figure(result))

    # Delivery is visibly degraded by the dynamics for both schemes.
    for cell in result.cells:
        assert cell.ratio < 0.95

    # But the network keeps functioning: something is delivered everywhere.
    for cell in result.cells:
        assert cell.ratio > 0.05
        assert cell.distinct_delivered > 0

    # Energy per delivered event exceeds the static baseline at the top
    # density (failed deliveries still cost transmissions).
    x = int(max(result.xs()))
    static = run_figure_plan(
        figure_plan("fig5", profile, trials=max(1, trials - 1), xs=(x,))
    )
    assert (
        result.cell("greedy", x).energy > 0.8 * static.cell("greedy", x).energy
    )

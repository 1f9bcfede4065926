"""Figure 9: impact of the number of sources (§5.4).

2..14 corner sources on the densest field.  Expected shape: as sources
pack the fixed 80 m x 80 m corner, the workload approaches the
event-radius model, paths merge early even without optimization, and the
greedy/opportunistic gap narrows.
"""

import os

from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.report import format_figure

from .conftest import run_figure_once

SOURCES = (2, 5, 10, 14)


def test_fig9_sources(benchmark, profile, trials, densities):
    n_nodes = int(os.environ.get("REPRO_FIG9_NODES", str(max(densities))))
    result = run_figure_once(
        benchmark,
        run_figure_plan,
        figure_plan("fig9", profile, trials=trials, xs=SOURCES, n_nodes=n_nodes),
    )
    print()
    print(format_figure(result))

    # Convergence: the savings at the largest source count do not exceed
    # the peak savings over the sweep (the gap closes, not widens).
    peak = result.max_energy_savings()
    assert result.energy_savings(max(SOURCES)) <= peak + 1e-9

    # More sources -> more delivered events, for both schemes.
    for scheme in ("greedy", "opportunistic"):
        series = result.series(scheme)
        assert series[-1].distinct_delivered > series[0].distinct_delivered

    for cell in result.cells:
        assert cell.ratio > 0.75

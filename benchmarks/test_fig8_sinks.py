"""Figure 8: impact of the number of sinks (§5.4).

1-5 sinks on the densest field (the paper used 350 nodes; the default CI
field keeps the top density of the configured sweep).  The first sink is
at the top-right corner, the rest scattered.  Expected shape: with more
sinks the energy efficiency of greedy converges toward opportunistic
("the impact of the random sink placement is similar to that of the
random source placement") while delivery remains high.
"""

import os

from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.report import format_figure

from .conftest import run_figure_once

SINKS = (1, 3, 5)


def test_fig8_sinks(benchmark, profile, trials, densities):
    n_nodes = int(os.environ.get("REPRO_FIG8_NODES", str(max(densities))))
    result = run_figure_once(
        benchmark,
        run_figure_plan,
        figure_plan("fig8", profile, trials=trials, xs=SINKS, n_nodes=n_nodes),
    )
    print()
    print(format_figure(result))

    # Savings with many scattered sinks fall at or below the single-sink
    # corner case.
    assert result.energy_savings(max(SINKS)) <= result.energy_savings(1) + 0.10

    for cell in result.cells:
        assert cell.ratio > 0.75
        assert cell.distinct_delivered > 0

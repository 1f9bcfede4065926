"""Figure 7: impact of random source placement (§5.4).

Same density sweep with the 5 sources scattered anywhere instead of
clustered in the corner.  Expected shape: greedy's energy savings shrink
versus fig 5 ("the energy savings of the greedy aggregation are reduced")
because scattered sources offer little early path sharing.
"""

from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.report import format_figure

from .conftest import run_figure_once


def test_fig7_random_sources(benchmark, profile, trials, densities):
    result = run_figure_once(
        benchmark, run_figure_plan, figure_plan("fig7", profile, trials=trials, xs=densities)
    )
    print()
    print(format_figure(result))

    high = int(max(result.xs()))

    # Savings with random placement stay below the corner scheme's at
    # high density (paired comparison with the same trial budget).
    corner = run_figure_plan(figure_plan("fig5", profile, trials=trials, xs=(high,)))
    assert result.energy_savings(high) < corner.energy_savings(high) + 0.10

    # Delivery stays healthy — placement changes energy, not correctness.
    for cell in result.cells:
        assert cell.ratio > 0.85

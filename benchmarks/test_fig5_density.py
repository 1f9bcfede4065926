"""Figure 5: greedy vs opportunistic aggregation across network density.

The headline comparison (§5.2): 5 corner sources, 1 corner sink, perfect
aggregation.  Panels: (a) average dissipated energy, (b) average delay,
(c) distinct-event delivery ratio.  Expected shape: the schemes are
roughly equivalent at the lowest density and greedy saves significantly
at higher densities, without hurting delay or delivery.
"""

from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.report import format_figure

from .conftest import run_figure_once


def test_fig5_density_sweep(benchmark, profile, trials, densities):
    result = run_figure_once(
        benchmark, run_figure_plan, figure_plan("fig5", profile, trials=trials, xs=densities)
    )
    print()
    print(format_figure(result))

    xs = result.xs()
    low, high = min(xs), max(xs)

    # (a) dissipated energy grows with density for both schemes
    #     ("due to some diffusion overhead").
    for scheme in ("greedy", "opportunistic"):
        series = result.series(scheme)
        assert series[-1].energy > series[0].energy

    # (a) greedy never loses badly, and wins clearly at high density.
    assert result.energy_savings(low) > -0.15
    assert result.energy_savings(high) > 0.10
    assert result.max_energy_savings() > 0.10

    # (b) delays comparable: same order of magnitude everywhere.
    for x in xs:
        opp, greedy = result.cell("opportunistic", x), result.cell("greedy", x)
        assert greedy.delay < 3 * opp.delay + 0.1
        assert opp.delay < 3 * greedy.delay + 0.1

    # (c) uncongested static networks deliver nearly everything.
    for cell in result.cells:
        assert cell.ratio > 0.85

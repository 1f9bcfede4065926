"""ASCII reporting: render figure results as the paper's panels.

The original figures are line plots; headless reproduction prints the
underlying series as aligned tables — one block per panel (a/b/c) — plus
the greedy-over-opportunistic savings column the paper quotes in prose
("up to 45% energy savings ... at higher densities").
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .figures import FigureResult

__all__ = [
    "format_table",
    "format_figure",
    "format_channel_figure",
    "format_tree_table",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], floatfmt: str = ".4g"
) -> str:
    """Render rows as a fixed-width ASCII table."""
    rendered = [
        [f"{v:{floatfmt}}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(list(headers)), sep, *(line(r) for r in rendered)])


def format_figure(result: FigureResult) -> str:
    """Render one figure's three panels plus the savings column."""
    headers = [
        result.x_label,
        "opp energy",
        "greedy energy",
        "savings%",
        "opp delay",
        "greedy delay",
        "opp ratio",
        "greedy ratio",
    ]
    rows = []
    for x in result.xs():
        opp = result.cell("opportunistic", x)
        greedy = result.cell("greedy", x)
        rows.append(
            [
                int(x),
                opp.energy,
                greedy.energy,
                100.0 * result.energy_savings(x),
                opp.delay,
                greedy.delay,
                opp.ratio,
                greedy.ratio,
            ]
        )
    title = f"{result.figure_id}: {result.title}"
    body = format_table(headers, rows)
    peak = 100.0 * result.max_energy_savings()
    return f"{title}\n{body}\npeak greedy energy savings: {peak:.1f}%"


def format_channel_figure(result: FigureResult) -> str:
    """Render the channel-density study: per-channel savings plus deltas.

    Cells are labeled ``<scheme>@<channel>`` (the ``channel-density``
    row of :data:`~repro.experiments.figures.FIGURES`); each row
    shows both schemes' energy and delivery ratio on both channels, the
    greedy-over-opportunistic savings per channel, and the pathloss-vs-
    disc delivery-ratio delta for greedy (the headline robustness
    question: does the density advantage survive a realistic channel?).
    """
    headers = [
        result.x_label,
        "opp/disc E",
        "grd/disc E",
        "disc sav%",
        "opp/pl E",
        "grd/pl E",
        "pl sav%",
        "grd/disc ratio",
        "grd/pl ratio",
        "dratio",
    ]
    rows = []
    for x in result.xs():
        od = result.cell("opportunistic@disc", x)
        gd = result.cell("greedy@disc", x)
        op = result.cell("opportunistic@pathloss", x)
        gp = result.cell("greedy@pathloss", x)
        disc_sav = 0.0 if od.energy == 0 else 100.0 * (1.0 - gd.energy / od.energy)
        pl_sav = 0.0 if op.energy == 0 else 100.0 * (1.0 - gp.energy / op.energy)
        rows.append(
            [
                int(x),
                od.energy,
                gd.energy,
                disc_sav,
                op.energy,
                gp.energy,
                pl_sav,
                gd.ratio,
                gp.ratio,
                gp.ratio - gd.ratio,
            ]
        )
    title = f"{result.figure_id}: {result.title}"
    body = format_table(headers, rows)
    return f"{title}\n{body}"


def format_tree_table(rows: list[dict]) -> str:
    """Render the GIT-vs-SPT abstract comparison (related work)."""
    headers = ["placement", "nodes", "sources", "SPT cost", "GIT cost", "Steiner", "savings%"]
    table_rows = [
        [
            r["placement"],
            r["n_nodes"],
            r["n_sources"],
            r["mean_spt_cost"],
            r["mean_git_cost"],
            r["mean_steiner_cost"],
            100.0 * r["mean_savings"],
        ]
        for r in rows
    ]
    return format_table(headers, table_rows)

"""Path truncation by weighted set cover over *sources* (§4.3).

Given the incoming aggregates of one T_n window, decide which upstream
neighbors are energy-inefficient and should be negatively reinforced.

The paper's direct rule — cover the window's *events* — is conservative:
in fig 4(a), neighbor H keeps delivering because one of its events wasn't
covered this window, even though its sources are fully covered by cheaper
neighbors.  The energy-efficient rule transforms every aggregate's event
set to its *source* set, rescaling weights by ``w* = w·|S*|/|S|`` to
preserve the initial cost ratios, and covers sources instead: in
fig 4(b), both H and K fall outside the cover and are truncated.

Both rules are implemented; the experiment ablation
(`benchmarks/test_ablations.py::test_ablation_truncation_rule`) compares
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..aggregation.setcover import (
    WeightedSubset,
    greedy_weighted_set_cover,
    transform_to_sources,
)

__all__ = ["WindowAggregate", "setcover_victims"]


@dataclass(frozen=True)
class WindowAggregate:
    """One incoming aggregate remembered for the truncation window."""

    sender: int
    item_keys: frozenset
    cost: float
    source_of: dict


def setcover_victims(
    window: Sequence[WindowAggregate], on_sources: bool = True
) -> list[int]:
    """Senders whose aggregates fall outside the minimum-cost cover.

    ``on_sources=True`` is the paper's energy-efficient rule (cover the
    set of sources); ``False`` is the conservative rule (cover the set of
    events).  An empty window, or a window with a single sender, never
    yields victims.
    """
    senders = {w.sender for w in window}
    if len(senders) < 2:
        return []

    family: list[WeightedSubset] = []
    source_of: dict[Hashable, int] = {}
    for agg in window:
        if not agg.item_keys:
            continue
        family.append(WeightedSubset(agg.item_keys, agg.cost, tag=agg.sender))
        source_of.update(agg.source_of)
    if not family:
        return []

    if on_sources:
        family = transform_to_sources(family, source_of)
    universe = frozenset().union(*(s.elements for s in family))
    cover = greedy_weighted_set_cover(universe, family)
    kept = {family[i].tag for i in cover.chosen}
    victims = sorted(senders - kept)
    # Safety valve: never truncate every sender at once.
    if len(victims) == len(senders):
        return []
    return victims

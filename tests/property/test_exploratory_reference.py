"""The exploratory round record against the per-neighbor reference.

An ``ExploratoryRecord`` (``repro.diffusion.cache``) keeps only the
copies of a round that can win a reinforcement rule: the first copy, the
round's minimum E and the copies at that minimum.  This module keeps the
record that it replaced, with one dict per neighbor for E, delivery
time, incremental cost C and C's time, and the choice logic over those
dicts.  Random schedules of exploratory copies and C notes go through
both caches, which must agree on every answer the agents read.

The schedules hold each neighbor at most once per round, the invariant
the slim record relies on; ``test_no_run_repeats_a_neighbor_copy`` checks
that whole runs keep it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.diffusion.cache import ExploratoryCache, ReinforceChoice
from repro.experiments.config import ExperimentConfig, FailureModel, smoke
from repro.experiments.runner import run_experiment
from repro.net.channel import ChannelSpec


@dataclass
class _RefRecord:
    """Everything one node heard about one exploratory round."""

    energy_by_neighbor: dict[int, float] = field(default_factory=dict)
    time_by_neighbor: dict[int, float] = field(default_factory=dict)
    first_neighbor: Optional[int] = None
    first_time: float = 0.0
    inc_cost_by_neighbor: dict[int, float] = field(default_factory=dict)
    inc_time_by_neighbor: dict[int, float] = field(default_factory=dict)

    def min_energy(self) -> Optional[float]:
        if not self.energy_by_neighbor:
            return None
        return min(self.energy_by_neighbor.values())


class ReferenceCache:
    """The per-neighbor exploratory cache, with the same FIFO bound."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._records: OrderedDict[Hashable, _RefRecord] = OrderedDict()

    def _record(self, key: Hashable) -> _RefRecord:
        rec = self._records.get(key)
        if rec is None:
            rec = _RefRecord()
            self._records[key] = rec
            if len(self._records) > self.capacity:
                self._records.popitem(last=False)
        return rec

    def note_exploratory(self, key, neighbor, energy_cost, now) -> bool:
        rec = self._record(key)
        first = rec.first_neighbor is None
        if first:
            rec.first_neighbor = neighbor
            rec.first_time = now
        prev = rec.energy_by_neighbor.get(neighbor)
        if prev is None or energy_cost < prev:
            rec.energy_by_neighbor[neighbor] = energy_cost
        rec.time_by_neighbor.setdefault(neighbor, now)
        return first

    def note_incremental_cost(self, key, neighbor, cost, now) -> None:
        rec = self._record(key)
        prev = rec.inc_cost_by_neighbor.get(neighbor)
        if prev is None or cost < prev:
            rec.inc_cost_by_neighbor[neighbor] = cost
        rec.inc_time_by_neighbor.setdefault(neighbor, now)

    def get(self, key) -> Optional[_RefRecord]:
        return self._records.get(key)

    def lowest_delay_choice(self, key) -> Optional[ReinforceChoice]:
        rec = self._records.get(key)
        if rec is None or rec.first_neighbor is None:
            return None
        cost = rec.energy_by_neighbor.get(rec.first_neighbor, float("inf"))
        return ReinforceChoice(rec.first_neighbor, cost, via_incremental=False)

    def lowest_cost_choice(self, key, prefer=frozenset()) -> Optional[ReinforceChoice]:
        rec = self._records.get(key)
        if rec is None:
            return None
        candidates = []
        for neighbor, cost in rec.energy_by_neighbor.items():
            candidates.append(
                (
                    cost,
                    0 if neighbor in prefer else 1,
                    0,
                    rec.time_by_neighbor.get(neighbor, float("inf")),
                    neighbor,
                )
            )
        for neighbor, cost in rec.inc_cost_by_neighbor.items():
            candidates.append(
                (
                    cost,
                    0 if neighbor in prefer else 1,
                    1,
                    rec.inc_time_by_neighbor.get(neighbor, float("inf")),
                    neighbor,
                )
            )
        if not candidates:
            return None
        cost, _pref, via, _t, neighbor = min(candidates)
        return ReinforceChoice(neighbor, cost, via_incremental=bool(via))


KEYS = ("a", "b", "c")
NEIGHBORS = tuple(range(6))
#: few distinct costs, so equal-cost copies (the tie rules) are common
COSTS = (1.0, 2.0, 3.0, 4.0)
#: a zero step gives equal delivery times, the last tie rule
STEPS = (0.0, 0.0, 0.001, 0.01)
#: the prefer sets the agents pass: none, one incumbent, everyone
PREFERS = (
    [frozenset()]
    + [frozenset({n}) for n in NEIGHBORS]
    + [frozenset(NEIGHBORS)]
)


@st.composite
def schedules(draw):
    """Interleaved exploratory copies ("x") and C notes ("c") over a few
    rounds, with non-decreasing times.  A neighbor's second exploratory
    copy of a round is dropped; C notes may repeat a neighbor."""
    raw = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("x", "x", "x", "c")),
                st.sampled_from(KEYS),
                st.sampled_from(NEIGHBORS),
                st.sampled_from(COSTS),
                st.sampled_from(STEPS),
            ),
            max_size=50,
        )
    )
    now = 0.0
    delivered = set()
    ops = []
    for kind, key, neighbor, cost, step in raw:
        now += step
        if kind == "x":
            if (key, neighbor) in delivered:
                continue
            delivered.add((key, neighbor))
        ops.append((kind, key, neighbor, cost, now))
    return ops


def _answers(cache, key):
    rec = cache.get(key)
    return (
        None if rec is None else rec.min_energy(),
        cache.lowest_delay_choice(key),
        [cache.lowest_cost_choice(key, prefer) for prefer in PREFERS],
    )


@given(schedules(), st.sampled_from((2, 512)))
@settings(max_examples=300, deadline=None)
# two copies at the round's minimum: the later one wins when preferred
@example([("x", "a", 0, 2.0, 0.0), ("x", "a", 1, 2.0, 0.1)], 512)
# the earlier of two equal-cost copies wins without a preference
@example(
    [("x", "a", 3, 3.0, 0.0), ("x", "a", 0, 1.0, 0.1), ("x", "a", 2, 1.0, 0.2)], 512
)
# a lower copy resets the minimum; C ties go to the exploratory copy
@example(
    [
        ("c", "a", 4, 2.0, 0.0),
        ("x", "a", 1, 3.0, 0.1),
        ("x", "a", 2, 2.0, 0.2),
        ("c", "a", 4, 1.0, 0.3),
    ],
    512,
)
def test_slim_record_agrees_with_reference(ops, capacity):
    slim = ExploratoryCache(capacity)
    ref = ReferenceCache(capacity)
    for kind, key, neighbor, cost, now in ops:
        if kind == "x":
            assert slim.note_exploratory(key, neighbor, cost, now) == (
                ref.note_exploratory(key, neighbor, cost, now)
            )
        else:
            slim.note_incremental_cost(key, neighbor, cost, now)
            ref.note_incremental_cost(key, neighbor, cost, now)
        for k in KEYS:
            assert _answers(slim, k) == _answers(ref, k)


@pytest.mark.parametrize(
    "scheme, overrides",
    [
        ("greedy", {"failures": FailureModel(0.2, 6.0)}),
        ("opportunistic", {"failures": FailureModel(0.2, 6.0)}),
        ("greedy", {"channel": ChannelSpec(model="pathloss")}),
        ("greedy", {"source_placement": "random", "n_sinks": 3}),
        ("greedy-events", {"n_sources": 14}),
    ],
    ids=[
        "greedy-failures",
        "opportunistic-failures",
        "greedy-pathloss",
        "greedy-random-3sinks",
        "greedy-events-14sources",
    ],
)
def test_no_run_repeats_a_neighbor_copy(monkeypatch, scheme, overrides):
    """No node hears one round from one neighbor twice: a node forwards
    a round once and the MAC never retransmits a broadcast."""
    delivered: dict[ExploratoryCache, set] = {}
    repeats = []
    note = ExploratoryCache.note_exploratory

    def counting_note(self, key, neighbor, energy_cost, now):
        seen = delivered.setdefault(self, set())
        if (key, neighbor) in seen:
            repeats.append((key, neighbor, energy_cost, now))
        seen.add((key, neighbor))
        return note(self, key, neighbor, energy_cost, now)

    monkeypatch.setattr(ExploratoryCache, "note_exploratory", counting_note)
    cfg = ExperimentConfig.from_profile(smoke(), scheme, 150, seed=1, **overrides)
    run_experiment(cfg)
    assert sum(len(seen) for seen in delivered.values()) > 10_000
    assert repeats == []

"""Per-node message caches.

Directed diffusion relies on small per-node caches of recently seen
messages (§2: "this cache serves to avoid duplicates, prevent loops, and
can be used to preferentially forward interests").  Two caches matter:

* :class:`SeenCache` — bounded LRU membership set used to suppress
  duplicate interests, data items, and incremental-cost messages.
* :class:`ExploratoryCache` — per exploratory-round bookkeeping for the
  two reinforcement rules: the opportunistic rule takes the *first*
  delivering neighbor, the greedy rule the *cheapest* one over
  exploratory E and incremental C (ties to an incumbent, then to
  exploratory, then to earliest delivery).

An :class:`ExploratoryRecord` keeps only the exploratory copies that can
win one of those rules: the first copy (neighbor, time, E), the round's
minimum E, and the ``(time, neighbor)`` of each copy at that minimum, in
arrival order.  A copy above the running minimum can change neither
decision, so it costs one dict lookup and one float compare.  Every
node re-floods each round once, so a node hears one copy per in-range
neighbor, and most of them are such copies.

This gives the answers of a record that keeps each neighbor's minimum E
and first delivery time, because each neighbor delivers a given round at
most once: a node forwards a round once, and the MAC never retransmits a
broadcast.  Were a neighbor to repeat a round at a lower E, the repeat
would count at its own arrival time, where the per-neighbor record kept
the neighbor's first time (and the first deliverer's cost stays its
first copy's E).  No run produces such a repeat;
``tests/property/test_exploratory_reference.py`` keeps the per-neighbor
record as the reference and checks the invariant on whole runs.
Incremental-cost (C) advertisements are rare and keep per-neighbor
dicts, allocated when a round's first C message arrives.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

__all__ = ["SeenCache", "ExploratoryRecord", "ExploratoryCache", "ReinforceChoice"]

_INF = float("inf")


class SeenCache:
    """Bounded LRU membership set."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._seen: OrderedDict[Hashable, None] = OrderedDict()

    def check_and_add(self, key: Hashable) -> bool:
        """Record ``key``; returns True when the key was previously unseen."""
        if key in self._seen:
            self._seen.move_to_end(key)
            return False
        self._seen[key] = None
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return True

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def __len__(self) -> int:
        return len(self._seen)


class ExploratoryRecord:
    """The copies of one exploratory round that can win a reinforcement rule."""

    __slots__ = (
        "first_neighbor",
        "first_time",
        "first_energy",
        "best_energy",
        "best_copies",
        "inc_cost_by_neighbor",
        "inc_time_by_neighbor",
    )

    def __init__(self) -> None:
        #: first neighbor to deliver any copy (the opportunistic winner),
        #: its delivery time and its E
        self.first_neighbor: Optional[int] = None
        self.first_time = 0.0
        self.first_energy = _INF
        #: the round's minimum E so far, and ``(time, neighbor)`` of each
        #: copy at that minimum, in arrival order
        self.best_energy = _INF
        self.best_copies: list[tuple[float, int]] = []
        #: best incremental cost C and first advertisement time per
        #: advertising neighbor; ``None`` until the round's first C message
        self.inc_cost_by_neighbor: Optional[dict[int, float]] = None
        self.inc_time_by_neighbor: Optional[dict[int, float]] = None

    def min_energy(self) -> Optional[float]:
        """Cheapest E across delivering neighbors (the node's own cost)."""
        return None if self.first_neighbor is None else self.best_energy


@dataclass(frozen=True)
class ReinforceChoice:
    """Outcome of a local reinforcement decision."""

    neighbor: int
    cost: float
    via_incremental: bool


class ExploratoryCache:
    """Bounded FIFO cache of :class:`ExploratoryRecord` s keyed by round."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: OrderedDict[Hashable, ExploratoryRecord] = OrderedDict()

    def _insert(self, key: Hashable) -> ExploratoryRecord:
        rec = self._records[key] = ExploratoryRecord()
        if len(self._records) > self.capacity:
            self._records.popitem(last=False)
        return rec

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def note_exploratory(
        self, key: Hashable, neighbor: int, energy_cost: float, now: float
    ) -> bool:
        """Record one delivered exploratory copy.

        Returns True when this is the first copy of the round seen at all
        (i.e. the copy that should be re-flooded).
        """
        rec = self._records.get(key)
        if rec is not None and energy_cost > rec.best_energy:
            return False  # above the round's minimum: wins neither rule
        if rec is None:
            rec = self._insert(key)
        if rec.first_neighbor is None:
            rec.first_neighbor = neighbor
            rec.first_time = now
            rec.first_energy = energy_cost
            rec.best_energy = energy_cost
            rec.best_copies = [(now, neighbor)]
            return True
        if energy_cost < rec.best_energy:
            rec.best_energy = energy_cost
            rec.best_copies = [(now, neighbor)]
        else:
            rec.best_copies.append((now, neighbor))
        return False

    def note_incremental_cost(
        self, key: Hashable, neighbor: int, cost: float, now: float
    ) -> None:
        """Record an incremental-cost advertisement heard from ``neighbor``."""
        rec = self._records.get(key)
        if rec is None:
            rec = self._insert(key)
        if rec.inc_cost_by_neighbor is None:
            rec.inc_cost_by_neighbor = {}
            rec.inc_time_by_neighbor = {}
        prev = rec.inc_cost_by_neighbor.get(neighbor)
        if prev is None or cost < prev:
            rec.inc_cost_by_neighbor[neighbor] = cost
        rec.inc_time_by_neighbor.setdefault(neighbor, now)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[ExploratoryRecord]:
        return self._records.get(key)

    def lowest_delay_choice(self, key: Hashable) -> Optional[ReinforceChoice]:
        """Opportunistic local rule: the neighbor that delivered first."""
        rec = self._records.get(key)
        if rec is None or rec.first_neighbor is None:
            return None
        return ReinforceChoice(rec.first_neighbor, rec.first_energy, via_incremental=False)

    def lowest_cost_choice(
        self, key: Hashable, prefer: frozenset = frozenset()
    ) -> Optional[ReinforceChoice]:
        """Greedy local rule (§4.1): cheapest over exploratory E and
        incremental C.

        Tie order: (1) an incumbent from ``prefer`` — typically the
        current data-gradient neighbor, so equal-cost rounds do not churn
        the established tree; (2) the exploratory sender over the
        incremental-cost sender (the paper's rule); (3) the earliest
        delivery ("other ties are decided in favor of the lowest delay").
        """
        rec = self._records.get(key)
        if rec is None:
            return None
        best = rec.best_energy
        candidates: list[tuple[float, int, int, float, int]] = [
            (best, 0 if neighbor in prefer else 1, 0, t, neighbor)
            for t, neighbor in rec.best_copies
        ]
        if rec.inc_cost_by_neighbor is not None:
            inc_time = rec.inc_time_by_neighbor
            for neighbor, cost in rec.inc_cost_by_neighbor.items():
                candidates.append(
                    (cost, 0 if neighbor in prefer else 1, 1, inc_time[neighbor], neighbor)
                )
        if not candidates:
            return None
        cost, _pref, via, _t, neighbor = min(candidates)
        return ReinforceChoice(neighbor, cost, via_incremental=bool(via))

    def __len__(self) -> int:
        return len(self._records)

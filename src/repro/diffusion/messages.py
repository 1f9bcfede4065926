"""Diffusion wire messages.

Sizes follow §5.1: events (exploratory and data) are 64-byte packets, all
other messages 36 bytes.  Aggregates are sized by the active aggregation
function (perfect: 64 B regardless of item count; linear: 28·d + 36).

Every message declares a ``wire_class`` — the energy-attribution label the
MAC stamps onto the outgoing :class:`~repro.net.packet.Frame` (see
:data:`repro.net.energy.MESSAGE_CLASSES`).  The net layer discovers it by
duck typing, so it stays payload-agnostic and the classes stay defined
next to the messages they describe.

``DataItem`` is the unit of "distinct event" accounting: one reading of
one source, identified by ``(source_id, seq)``; its generation timestamp
rides along for the latency metric (ns-2 got this from its trace file).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constants import CONTROL_SIZE, EVENT_SIZE
from .attributes import InterestSpec

__all__ = [
    "EVENT_SIZE",
    "CONTROL_SIZE",
    "DataItem",
    "InterestMsg",
    "ExploratoryEvent",
    "AggregateMsg",
    "IncrementalCostMsg",
    "ReinforcementMsg",
    "NegativeReinforcementMsg",
]


@dataclass(frozen=True)
class DataItem:
    """One distinct event: a single reading of a single source."""

    source_id: int
    seq: int
    gen_time: float

    @property
    def key(self) -> tuple[int, int]:
        """Identity used for dedup and distinct-event counting."""
        return (self.source_id, self.seq)


@dataclass(frozen=True)
class InterestMsg:
    """Flooded task description (sets up exploratory gradients)."""

    interest_id: int
    sink_id: int
    spec: InterestSpec
    data_interval: float
    exploratory_interval: float
    gradient_timeout: float
    timestamp: float
    refresh_seq: int

    size = CONTROL_SIZE
    wire_class = "interest"


@dataclass(frozen=True)
class ExploratoryEvent:
    """Low-rate event flooded for path establishment and repair.

    ``energy_cost`` is the greedy scheme's E attribute: the cumulative
    (fixed-power ⇒ hop-count) cost from the source to the receiver of
    this copy.  The opportunistic scheme carries but ignores it.
    """

    interest_id: int
    source_id: int
    exp_seq: int
    energy_cost: float
    gen_time: float
    #: round identity: one exploratory flood of one source for one
    #: interest; built once per message, which every in-range neighbor reads
    key: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    size = EVENT_SIZE
    wire_class = "exploratory"

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.interest_id, self.source_id, self.exp_seq))

    def hopped(self) -> "ExploratoryEvent":
        """Copy with the per-hop transmission cost added (fixed power: +1)."""
        return ExploratoryEvent(
            self.interest_id,
            self.source_id,
            self.exp_seq,
            self.energy_cost + 1.0,
            self.gen_time,
        )


@dataclass(frozen=True)
class AggregateMsg:
    """High-rate data: one or more data items aggregated into one packet.

    ``energy_cost`` is the w attribute of §4.2 — the cost of delivering
    this aggregate from its sources to the sender, computed via the greedy
    weighted-set-cover heuristic at each aggregation point.
    """

    interest_id: int
    items: tuple[DataItem, ...]
    energy_cost: float
    size: int

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("an aggregate must carry at least one item")
        if self.size <= 0:
            raise ValueError("aggregate size must be positive")

    @property
    def wire_class(self) -> str:
        """Unmerged single readings bill as "data", merged ones as "aggregate"."""
        return "aggregate" if len(self.items) > 1 else "data"

    @property
    def sources(self) -> frozenset[int]:
        return frozenset(item.source_id for item in self.items)

    @property
    def item_keys(self) -> frozenset[tuple[int, int]]:
        return frozenset(item.key for item in self.items)


@dataclass(frozen=True)
class IncrementalCostMsg:
    """Path-sharing advertisement (§4.1).

    Generated by an on-tree source when it hears another source's
    exploratory event; carries the cost C of grafting that source onto the
    existing tree.  C only ever decreases as the message travels down the
    tree's data gradients (each on-tree node takes min(C, cached E)).
    """

    interest_id: int
    event_key: tuple[int, int, int]
    origin_source: int
    cost: float

    size = CONTROL_SIZE
    wire_class = "cost"

    def lowered(self, cost: float) -> "IncrementalCostMsg":
        """Copy with C lowered to ``cost`` (never raised)."""
        if cost > self.cost:
            raise ValueError("incremental cost can only decrease")
        return IncrementalCostMsg(self.interest_id, self.event_key, self.origin_source, cost)


@dataclass(frozen=True)
class ReinforcementMsg:
    """Positive reinforcement: upgrade the sender-ward gradient to a data
    gradient and continue upstream by the receiver's local rule."""

    interest_id: int
    event_key: tuple[int, int, int]

    size = CONTROL_SIZE
    wire_class = "reinforcement"


@dataclass(frozen=True)
class NegativeReinforcementMsg:
    """Negative reinforcement: the sender no longer wants data from the
    receiver for this interest (path truncation, §4.3)."""

    interest_id: int

    size = CONTROL_SIZE
    wire_class = "negative"

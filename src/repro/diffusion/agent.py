"""The directed-diffusion protocol engine (shared by both instantiations).

One :class:`DiffusionAgent` runs on every node and implements everything
§2 describes: interest flooding with gradient setup, exploratory-event
flooding with duplicate suppression, data forwarding along data gradients
with in-network aggregation (T_a buffering + set-cover costing), positive
reinforcement propagation, and negative-reinforcement cascades.

The two instantiations the paper compares differ **only** in the local
rules injected through subclass hooks:

==============================  ===============================  =============================
hook                            opportunistic (baseline)          greedy (the contribution)
==============================  ===============================  =============================
``sink_on_exploratory``         reinforce first deliverer now     arm T_p, then cheapest
``choose_upstream``             first (lowest-delay) neighbor     min over cached E and C
``on_exploratory_first``        nothing                           on-tree sources emit C msgs
``truncation_victims``          duplicate-only senders            outside the source set cover
==============================  ===============================  =============================

Roles are per interest: a node may be a sink for its own interest, a
source for any interest whose predicates it matches, and an intermediate
forwarder for everything else — all at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Protocol

from ..aggregation.aggregator import AggregationBuffer
from ..aggregation.functions import AggregationFunction, PerfectAggregation
from ..net.node import Node
from ..sim import PeriodicTimer, ScheduledEvent
from .attributes import AttributeSet, InterestSpec, node_attributes
from .cache import ExploratoryCache, ReinforceChoice, SeenCache
from .gradient import GradientTable
from .messages import (
    AggregateMsg,
    DataItem,
    ExploratoryEvent,
    IncrementalCostMsg,
    InterestMsg,
    NegativeReinforcementMsg,
    ReinforcementMsg,
)

__all__ = ["DiffusionParams", "DeliverySink", "DiffusionAgent", "SourceState"]


@dataclass(frozen=True)
class DiffusionParams:
    """Protocol constants (§5.1 defaults)."""

    data_interval: float = 0.5           # 2 events per second per source
    exploratory_interval: float = 50.0   # one exploratory event per 50 s
    interest_interval: float = 5.0       # interest refresh period
    gradient_timeout: float = 15.0
    aggregation_delay: float = 0.5       # T_a
    reinforcement_timer: float = 1.0     # T_p (greedy sink decision delay)
    negative_window: float = 2.0         # T_n (= 4 x T_a)
    interest_jitter: float = 0.5         # desynchronise sink floods
    forward_jitter: float = 0.025        # flood re-broadcast jitter
    source_window: float = 2.0           # recency window for aggregation-point test
    repair_backoff: float = 1.0          # min gap between repair exploratories
    cache_capacity: int = 8192

    def __post_init__(self) -> None:
        for name in (
            "data_interval",
            "exploratory_interval",
            "interest_interval",
            "gradient_timeout",
            "aggregation_delay",
            "reinforcement_timer",
            "negative_window",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class DeliverySink(Protocol):
    """Metrics interface the experiment harness implements."""

    def on_generated(self, interest_id: int, item: DataItem) -> None:  # pragma: no cover
        ...

    def on_delivered(
        self, interest_id: int, sink_id: int, item: DataItem, time: float
    ) -> None:  # pragma: no cover
        ...


@dataclass
class SourceState:
    """Per-interest sensing state at a source node."""

    interest_id: int
    data_seq: int = 0
    exp_seq: int = 0
    data_timer: Optional[PeriodicTimer] = None
    exploratory_timer: Optional[PeriodicTimer] = None


@dataclass
class _WindowEntry:
    """One incoming aggregate remembered for the truncation window."""

    time: float
    from_id: int
    accepted_keys: frozenset
    all_keys: frozenset
    cost: float
    source_of: dict


class DiffusionAgent:
    """Base diffusion engine; see module docstring for the hook table."""

    scheme_name = "base"

    def __init__(
        self,
        node: Node,
        params: DiffusionParams,
        aggfn: Optional[AggregationFunction] = None,
        metrics: Optional[DeliverySink] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.tracer = node.tracer
        self.params = params
        self.aggfn = aggfn or PerfectAggregation()
        self.metrics = metrics
        self.rng = node.mac.rng  # reuse the node's deterministic stream
        self.attributes: AttributeSet = node_attributes("tracking", node.x, node.y)
        self._merge_size = self.tracer.registry.histogram(
            "agg.merge_size", buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
        )

        # interest / gradient state
        self.own_interests: dict[int, InterestMsg] = {}
        self.known_interests: dict[int, InterestMsg] = {}
        self.gradients: dict[int, GradientTable] = {}
        self.interest_seen = SeenCache(params.cache_capacity)
        self.interest_timers: dict[int, PeriodicTimer] = {}

        # exploratory / reinforcement state
        self.exploratory_cache = ExploratoryCache(512)
        self.ic_seen = SeenCache(params.cache_capacity)
        self.reinforce_forwarded = SeenCache(params.cache_capacity)

        # data path state
        self.item_seen: dict[int, SeenCache] = {}
        self.buffers: dict[int, AggregationBuffer] = {}
        self.flush_events: dict[int, ScheduledEvent] = {}
        self.recent_sources: dict[int, dict[int, float]] = {}
        self.recent_item_sources: dict[int, dict[int, float]] = {}
        self.window: dict[int, deque[_WindowEntry]] = {}
        self.truncation_events: dict[int, ScheduledEvent] = {}
        self._dead_end_sent = SeenCache(params.cache_capacity)
        self._last_repair: dict[int, float] = {}

        # roles
        self.source_for: dict[int, SourceState] = {}

        node.set_protocol(self)

    # ==================================================================
    # role setup
    # ==================================================================
    def attach_sink(self, interest_id: int, spec: InterestSpec) -> None:
        """Make this node a sink: originate and periodically refresh the
        interest for ``spec``."""
        msg = InterestMsg(
            interest_id=interest_id,
            sink_id=self.node.node_id,
            spec=spec,
            data_interval=self.params.data_interval,
            exploratory_interval=self.params.exploratory_interval,
            gradient_timeout=self.params.gradient_timeout,
            timestamp=self.sim.now,
            refresh_seq=0,
        )
        self.own_interests[interest_id] = msg
        timer = PeriodicTimer(
            self.sim,
            lambda iid=interest_id: self._send_interest(iid),
            self.params.interest_interval,
            jitter=self.params.interest_jitter,
            rng=self.rng,
        )
        self.interest_timers[interest_id] = timer
        timer.start(initial_delay=self.rng.random() * self.params.interest_jitter)

    def _send_interest(self, interest_id: int) -> None:
        if not self.node.up:
            return
        prev = self.own_interests[interest_id]
        msg = InterestMsg(
            interest_id=interest_id,
            sink_id=prev.sink_id,
            spec=prev.spec,
            data_interval=prev.data_interval,
            exploratory_interval=prev.exploratory_interval,
            gradient_timeout=prev.gradient_timeout,
            timestamp=self.sim.now,
            refresh_seq=prev.refresh_seq + 1,
        )
        self.own_interests[interest_id] = msg
        self.known_interests[interest_id] = msg
        self.tracer.count("diffusion.interest_originated")
        self.node.broadcast(msg, msg.size)

    # ==================================================================
    # dispatch
    # ==================================================================
    def on_message(self, msg: Any, from_id: int) -> None:
        """MAC delivery entry point."""
        kind = type(msg)
        if kind is ExploratoryEvent:  # most deliveries: one per neighbor per round
            self._handle_exploratory(msg, from_id)
        elif kind is AggregateMsg:
            self._handle_aggregate(msg, from_id)
        elif kind is InterestMsg:
            self._handle_interest(msg, from_id)
        elif kind is ReinforcementMsg:
            self._handle_reinforcement(msg, from_id)
        elif kind is IncrementalCostMsg:
            self._handle_incremental_cost(msg, from_id)
        elif kind is NegativeReinforcementMsg:
            self._handle_negative(msg, from_id)
        else:  # pragma: no cover - future message types
            self.tracer.count("diffusion.unknown_message")

    # ==================================================================
    # interests and gradients
    # ==================================================================
    def _gradient_table(self, interest_id: int) -> GradientTable:
        table = self.gradients.get(interest_id)
        if table is None:
            # Data strength survives a missed reinforcement round (floods
            # are lossy) but decays after two: reinforcement recurs every
            # exploratory interval.
            table = GradientTable(
                self.params.gradient_timeout,
                data_timeout=max(
                    self.params.gradient_timeout,
                    2.2 * self.params.exploratory_interval,
                ),
            )
            self.gradients[interest_id] = table
        return table

    def _handle_interest(self, msg: InterestMsg, from_id: int) -> None:
        if msg.interest_id in self.own_interests:
            return  # our own interest echoed back; no gradient toward ourselves
        self._gradient_table(msg.interest_id).refresh_exploratory(from_id, self.sim.now)
        self.known_interests[msg.interest_id] = msg
        if not self.interest_seen.check_and_add((msg.interest_id, msg.refresh_seq)):
            return
        self.tracer.count("diffusion.interest_forwarded")
        # Re-flood with a short jitter to desynchronise neighbors.
        self.sim.schedule(
            self.rng.random() * self.params.forward_jitter, self._forward_interest, msg
        )
        if msg.spec.matches(self.attributes):
            self._activate_source(msg)

    def _forward_interest(self, msg: InterestMsg) -> None:
        if self.node.up:
            self.node.broadcast(msg, msg.size)

    # ==================================================================
    # source behaviour
    # ==================================================================
    def _activate_source(self, interest: InterestMsg) -> None:
        """Start sensing for a matching interest (idempotent)."""
        if interest.interest_id in self.source_for:
            return
        state = SourceState(interest.interest_id)
        self.source_for[interest.interest_id] = state
        self.tracer.count("diffusion.source_activated")
        state.exploratory_timer = PeriodicTimer(
            self.sim,
            lambda: self._send_exploratory(state),
            interest.exploratory_interval,
            jitter=self.params.forward_jitter * 4,
            rng=self.rng,
        )
        # First exploratory goes out (nearly) immediately on detection.
        state.exploratory_timer.start(initial_delay=self.rng.random() * 0.1)
        state.data_timer = PeriodicTimer(
            self.sim,
            lambda: self._generate_data(state),
            interest.data_interval,
            jitter=self.params.forward_jitter,
            rng=self.rng,
        )
        state.data_timer.start(initial_delay=interest.data_interval * self.rng.random())

    def _interest_fresh(self, interest_id: int) -> bool:
        msg = self.known_interests.get(interest_id) or self.own_interests.get(interest_id)
        if msg is None:
            return False
        return self.sim.now - msg.timestamp <= self.params.gradient_timeout

    def _send_exploratory(self, state: SourceState) -> None:
        if not self.node.up or not self._interest_fresh(state.interest_id):
            return
        state.exp_seq += 1
        msg = ExploratoryEvent(
            interest_id=state.interest_id,
            source_id=self.node.node_id,
            exp_seq=state.exp_seq,
            energy_cost=1.0,  # E = cost of delivering this copy to its receiver
            gen_time=self.sim.now,
        )
        self.tracer.count("diffusion.exploratory_originated")
        self.node.broadcast(msg, msg.size)

    def _generate_data(self, state: SourceState) -> None:
        if not self.node.up or not self._interest_fresh(state.interest_id):
            return
        state.data_seq += 1
        item = DataItem(self.node.node_id, state.data_seq, self.sim.now)
        self.tracer.count("diffusion.item_generated")
        if self.tracer.wants("data.gen"):
            self.tracer.record(
                "data.gen",
                node=self.node.node_id,
                interest=state.interest_id,
                src=item.source_id,
                seq=item.seq,
            )
        if self.metrics is not None:
            self.metrics.on_generated(state.interest_id, item)
        self._mark_item_seen(state.interest_id, item)
        self._route_local_item(state.interest_id, item)

    def _mark_item_seen(self, interest_id: int, item: DataItem) -> None:
        cache = self.item_seen.get(interest_id)
        if cache is None:
            cache = SeenCache(self.params.cache_capacity)
            self.item_seen[interest_id] = cache
        cache.check_and_add(item.key)

    def _route_local_item(self, interest_id: int, item: DataItem) -> None:
        outlets = self._usable_outlets(interest_id)
        if not outlets:
            self.tracer.count("diffusion.local_no_gradient")
            self._request_repair(interest_id)
            return
        self._note_source(interest_id, self._LOCAL)
        self._note_item_sources(interest_id, (item.source_id,))
        if self._is_aggregation_point(interest_id):
            self._buffer(interest_id).add_local(item)
            self._arm_flush(interest_id)
            self._maybe_early_flush(interest_id)
        else:
            out = AggregateMsg(
                interest_id=interest_id,
                items=(item,),
                energy_cost=1.0,
                size=self.aggfn.size(1),
            )
            self._send_data(out, outlets)

    def _request_repair(self, interest_id: int) -> None:
        """Source-side path repair: a source holding data but no usable
        data gradient re-floods an exploratory event (rate-limited) so the
        sink can re-reinforce without waiting a full exploratory period —
        the ns-2 diffusion behaviour of sending unreinforced data in
        exploratory mode, applied identically to both schemes."""
        state = self.source_for.get(interest_id)
        if state is None:
            return
        last = self._last_repair.get(interest_id, -float("inf"))
        if self.sim.now - last < self.params.repair_backoff:
            return
        self._last_repair[interest_id] = self.sim.now
        self.tracer.count("diffusion.repair_exploratory")
        self._send_exploratory(state)

    # ==================================================================
    # exploratory flood
    # ==================================================================
    def _handle_exploratory(self, msg: ExploratoryEvent, from_id: int) -> None:
        if msg.source_id == self.node.node_id:
            return  # our own flood echoed back
        first = self.exploratory_cache.note_exploratory(
            msg.key, from_id, msg.energy_cost, self.sim.now
        )
        if msg.interest_id in self.own_interests:
            if first:
                self.tracer.count("diffusion.exploratory_at_sink")
            self.sink_on_exploratory(msg, from_id, first)
            return
        if not first:
            return
        # Sources already on the tree may advertise an incremental cost.
        self.on_exploratory_first(msg, from_id)
        if msg.interest_id not in self.known_interests:
            self.tracer.count("diffusion.exploratory_unknown_interest")
            return
        forwarded = msg.hopped()
        self.sim.schedule(
            self.rng.random() * self.params.forward_jitter,
            self._forward_exploratory,
            forwarded,
        )

    def _forward_exploratory(self, msg: ExploratoryEvent) -> None:
        if self.node.up:
            self.tracer.count("diffusion.exploratory_forwarded")
            self.node.broadcast(msg, msg.size)

    # ==================================================================
    # data path
    # ==================================================================
    def _buffer(self, interest_id: int) -> AggregationBuffer:
        buf = self.buffers.get(interest_id)
        if buf is None:
            buf = AggregationBuffer(self.aggfn)
            self.buffers[interest_id] = buf
        return buf

    #: pseudo-sender id for locally generated items
    _LOCAL = -2

    def _note_source(self, interest_id: int, sender_id: int) -> None:
        self.recent_sources.setdefault(interest_id, {})[sender_id] = self.sim.now

    def _is_aggregation_point(self, interest_id: int) -> bool:
        """A node aggregates where data *flows converge*: >= 2 distinct
        recent upstream senders (local generation counts as one flow).
        Everyone else forwards immediately (§4.2: "an intermediate node
        that is not an aggregation point does not need to delay the data
        at all")."""
        recents = self.recent_sources.get(interest_id)
        if not recents:
            return False
        horizon = self.sim.now - self.params.source_window
        live = sum(1 for t in recents.values() if t >= horizon)
        return live >= 2

    def _usable_outlets(
        self, interest_id: int, exclude: tuple[int, ...] = ()
    ) -> list[int]:
        """Data-gradient neighbors data can actually progress through.

        A gradient toward a node that has itself been sending us data for
        this interest is a two-way edge — by construction a routing loop
        (each endpoint believes the other is downstream), so it is never
        a usable outlet.  ``exclude`` additionally applies split horizon:
        an aggregate is never returned to its own sender.
        """
        now = self.sim.now
        horizon = now - self.params.source_window
        recents = self.recent_sources.get(interest_id, {})
        outlets = []
        for n in self._gradient_table(interest_id).data_neighbors(now):
            if n in exclude:
                continue
            t = recents.get(n)
            if t is not None and t >= horizon:
                self.tracer.count("diffusion.loop_outlet_skipped")
                continue
            outlets.append(n)
        return outlets

    def _dead_end_negative(self, interest_id: int, senders: list[int]) -> None:
        """Data arrived but has nowhere to go: degrade the feeding paths.

        Rate-limited per (interest, neighbor) to one NR per negative
        window so transient reconfigurations do not flap."""
        for sender in senders:
            key = (interest_id, sender, int(self.sim.now / self.params.negative_window))
            if self._dead_end_sent.check_and_add(key):
                self.tracer.count("diffusion.dead_end_negative")
                self.send_negative(interest_id, sender)

    def _handle_aggregate(self, msg: AggregateMsg, from_id: int) -> None:
        self.tracer.count("diffusion.aggregate_received")
        cache = self.item_seen.get(msg.interest_id)
        if cache is None:
            cache = SeenCache(self.params.cache_capacity)
            self.item_seen[msg.interest_id] = cache
        accepted = [item for item in msg.items if cache.check_and_add(item.key)]
        if self.tracer.wants("data.rx"):
            self.tracer.record(
                "data.rx",
                node=self.node.node_id,
                interest=msg.interest_id,
                sender=from_id,
                keys=[list(item.key) for item in msg.items],
                accepted=[list(item.key) for item in accepted],
            )
        self._note_window(msg, from_id, accepted)
        if msg.interest_id in self.own_interests:
            deliver_wanted = self.tracer.wants("data.deliver")
            for item in accepted:
                self.tracer.count("diffusion.item_delivered")
                if deliver_wanted:
                    self.tracer.record(
                        "data.deliver",
                        interest=msg.interest_id,
                        sink=self.node.node_id,
                        key=list(item.key),
                    )
                if self.metrics is not None:
                    self.metrics.on_delivered(
                        msg.interest_id, self.node.node_id, item, self.sim.now
                    )
            return
        if not accepted:
            self.tracer.count("diffusion.aggregate_all_duplicate")
            return
        self._note_source(msg.interest_id, from_id)
        self._note_item_sources(msg.interest_id, (i.source_id for i in accepted))
        outlets = self._usable_outlets(msg.interest_id, exclude=(from_id,))
        if not outlets:
            self.tracer.count("diffusion.data_no_gradient")
            self._dead_end_negative(msg.interest_id, [from_id])
            return
        if self._is_aggregation_point(msg.interest_id):
            self._buffer(msg.interest_id).add_incoming(msg, accepted, tag=from_id)
            self._arm_flush(msg.interest_id)
            self._maybe_early_flush(msg.interest_id)
        else:
            out = AggregateMsg(
                interest_id=msg.interest_id,
                items=tuple(accepted),
                energy_cost=msg.energy_cost + 1.0,
                size=self.aggfn.size(len(accepted)),
            )
            self._send_data(out, outlets)

    def _note_window(
        self, msg: AggregateMsg, from_id: int, accepted: list[DataItem]
    ) -> None:
        """Remember the incoming aggregate for the T_n truncation window."""
        win = self.window.get(msg.interest_id)
        if win is None:
            win = deque()
            self.window[msg.interest_id] = win
        win.append(
            _WindowEntry(
                time=self.sim.now,
                from_id=from_id,
                accepted_keys=frozenset(i.key for i in accepted),
                all_keys=msg.item_keys,
                cost=msg.energy_cost,
                source_of={i.key: i.source_id for i in msg.items},
            )
        )
        self._arm_truncation(msg.interest_id)

    def _prune_window(self, interest_id: int) -> deque[_WindowEntry]:
        win = self.window.get(interest_id)
        if win is None:
            win = deque()
            self.window[interest_id] = win
        horizon = self.sim.now - self.params.negative_window
        while win and win[0].time < horizon:
            win.popleft()
        return win

    def _note_item_sources(self, interest_id: int, source_ids) -> None:
        recents = self.recent_item_sources.setdefault(interest_id, {})
        now = self.sim.now
        for sid in source_ids:
            recents[sid] = now

    def _maybe_early_flush(self, interest_id: int) -> None:
        """§4.2: "an intermediate node that receives a sufficient amount
        of data for aggregation does not need to delay the received data
        any further."  Sufficient = the buffer already holds data from
        every source recently flowing through this node, so waiting out
        the rest of T_a cannot improve the aggregate."""
        buf = self.buffers.get(interest_id)
        if buf is None or buf.empty:
            return
        recents = self.recent_item_sources.get(interest_id)
        if not recents:
            return
        horizon = self.sim.now - self.params.source_window
        expected = {sid for sid, t in recents.items() if t >= horizon}
        if expected and expected <= buf.pending_sources():
            ev = self.flush_events.pop(interest_id, None)
            if ev is not None:
                ev.cancel()
            self.tracer.count("diffusion.early_flush")
            self._flush(interest_id)

    def _arm_flush(self, interest_id: int) -> None:
        ev = self.flush_events.get(interest_id)
        if ev is not None and ev.pending:
            return
        self.flush_events[interest_id] = self.sim.schedule(
            self.params.aggregation_delay, self._flush, interest_id
        )

    def _flush(self, interest_id: int) -> None:
        self.flush_events.pop(interest_id, None)
        if not self.node.up:
            return
        buf = self.buffers.get(interest_id)
        if buf is None or buf.empty:
            return
        outlets = self._usable_outlets(interest_id)
        if not outlets:
            self.tracer.count("diffusion.flush_no_gradient")
            buf.flush()  # items are lost; clear the buffer
            win = self._prune_window(interest_id)
            self._dead_end_negative(interest_id, sorted({e.from_id for e in win}))
            return
        result = buf.flush()
        self.tracer.count("diffusion.flushes")
        if self.tracer.wants("data.merge"):
            self.tracer.record(
                "data.merge",
                node=self.node.node_id,
                interest=interest_id,
                n_contributions=result.n_contributions,
                aggregates=[
                    [list(item.key) for item in agg.items]
                    for agg in result.aggregates
                ],
            )
        for agg in result.aggregates:
            self._merge_size.observe(len(agg.items))
            if len(agg.items) > 1:
                self.tracer.count("diffusion.items_aggregated", len(agg.items))
            out = AggregateMsg(
                interest_id=interest_id,
                items=agg.items,
                energy_cost=agg.cost,
                size=agg.size,
            )
            self._send_data(out, outlets)

    def _send_data(self, msg: AggregateMsg, outlets: list[int]) -> None:
        """Unicast an aggregate along the given usable data gradients."""
        if self.tracer.wants("data.tx"):
            self.tracer.record(
                "data.tx",
                node=self.node.node_id,
                interest=msg.interest_id,
                keys=[list(item.key) for item in msg.items],
                outlets=list(outlets),
            )
        for neighbor in outlets:
            self.tracer.count("diffusion.data_sent")
            self.node.send(msg, neighbor, msg.size)

    # ==================================================================
    # reinforcement
    # ==================================================================
    def send_reinforcement(self, interest_id: int, event_key: tuple, neighbor: int) -> None:
        """Unicast positive reinforcement for one exploratory round."""
        self.tracer.count("diffusion.reinforcement_sent")
        self.node.send(
            ReinforcementMsg(interest_id, event_key),
            neighbor,
            ReinforcementMsg.size,
        )

    def _handle_reinforcement(self, msg: ReinforcementMsg, from_id: int) -> None:
        self.tracer.count("diffusion.reinforcement_received")
        self._gradient_table(msg.interest_id).reinforce(from_id, self.sim.now)
        if self.tracer.wants("gradient.reinforce"):
            self.tracer.record(
                "gradient.reinforce",
                node=self.node.node_id,
                interest=msg.interest_id,
                neighbor=from_id,
            )
        _iid, source_id, _seq = msg.event_key
        if source_id == self.node.node_id:
            return  # reached the source that originated the round
        if not self.reinforce_forwarded.check_and_add((msg.event_key, "fwd")):
            return  # already continued this round upstream
        choice = self.choose_upstream(msg.event_key)
        if choice is None:
            self.tracer.count("diffusion.reinforce_dead_end")
            return
        if choice.neighbor == from_id:
            self.tracer.count("diffusion.reinforce_backtrack")
            return
        self.send_reinforcement(msg.interest_id, msg.event_key, choice.neighbor)

    # ==================================================================
    # negative reinforcement
    # ==================================================================
    def send_negative(self, interest_id: int, neighbor: int) -> None:
        self.tracer.count("diffusion.negative_sent")
        self.node.send(
            NegativeReinforcementMsg(interest_id),
            neighbor,
            NegativeReinforcementMsg.size,
        )

    def _handle_negative(self, msg: NegativeReinforcementMsg, from_id: int) -> None:
        self.tracer.count("diffusion.negative_received")
        table = self._gradient_table(msg.interest_id)
        degraded = table.degrade(from_id)
        if not degraded:
            return
        if self.tracer.wants("gradient.degrade"):
            self.tracer.record(
                "gradient.degrade",
                node=self.node.node_id,
                interest=msg.interest_id,
                neighbor=from_id,
            )
        if self._usable_outlets(msg.interest_id):
            return
        # §4.3: with no usable data gradients left (loop edges toward our
        # own senders do not count), rapidly degrade the path by
        # negatively reinforcing everyone who has been sending us data.
        win = self._prune_window(msg.interest_id)
        senders = {entry.from_id for entry in win}
        for sender in senders:
            self.send_negative(msg.interest_id, sender)

    def _arm_truncation(self, interest_id: int) -> None:
        ev = self.truncation_events.get(interest_id)
        if ev is not None and ev.pending:
            return
        delay = self.params.negative_window * (1.0 + 0.1 * self.rng.random())
        self.truncation_events[interest_id] = self.sim.schedule(
            delay, self._truncation_tick, interest_id
        )

    def _truncation_tick(self, interest_id: int) -> None:
        self.truncation_events.pop(interest_id, None)
        if not self.node.up:
            return
        if interest_id in self.own_interests or self._gradient_table(
            interest_id
        ).has_data_gradient(self.sim.now):
            win = self._prune_window(interest_id)
            if win:
                victims = self.truncation_victims(interest_id, list(win))
                for victim in victims:
                    self.tracer.count("diffusion.truncation")
                    self.send_negative(interest_id, victim)
                self._arm_truncation(interest_id)

    # ==================================================================
    # subclass hooks
    # ==================================================================
    def sink_on_exploratory(
        self, msg: ExploratoryEvent, from_id: int, first: bool
    ) -> None:
        """Sink-side handling of an exploratory copy (reinforcement policy)."""
        raise NotImplementedError

    def choose_upstream(self, event_key: tuple) -> Optional[ReinforceChoice]:
        """Local rule: which neighbor to reinforce for this round."""
        raise NotImplementedError

    def on_exploratory_first(self, msg: ExploratoryEvent, from_id: int) -> None:
        """First copy of another source's round arrived (greedy: emit C)."""

    def _handle_incremental_cost(self, msg: IncrementalCostMsg, from_id: int) -> None:
        """Incremental-cost routing (greedy only; base drops)."""
        self.tracer.count("diffusion.ic_ignored")

    def truncation_victims(
        self, interest_id: int, window: list[_WindowEntry]
    ) -> list[int]:
        """Which upstream senders to negatively reinforce this window."""
        raise NotImplementedError

"""Tests for the loop-hygiene machinery: split horizon, two-way-edge
exclusion, dead-end negative reinforcement, and source repair."""

import pytest

from repro.diffusion.agent import DiffusionParams
from repro.diffusion.messages import AggregateMsg, DataItem
from repro.diffusion.opportunistic import OpportunisticAgent
from tests.helpers import MiniWorld, chain_positions

PARAMS = DiffusionParams(exploratory_interval=8.0, interest_interval=4.0)


def lone_agent():
    w = MiniWorld(chain_positions(1))
    return w, w.attach_agents(OpportunisticAgent, params=PARAMS)[0]


def aggregate(interest, items, cost=2.0):
    return AggregateMsg(interest_id=interest, items=tuple(items), energy_cost=cost, size=64)


class TestUsableOutlets:
    def test_split_horizon_excludes_sender(self):
        _w, agent = lone_agent()
        table = agent._gradient_table(1)
        table.reinforce(7, now=0.0)
        table.reinforce(7, now=0.0)
        assert agent._usable_outlets(1) == [7]
        assert agent._usable_outlets(1, exclude=(7,)) == []

    def test_two_way_edge_excluded(self):
        w, agent = lone_agent()
        table = agent._gradient_table(1)
        table.reinforce(7, now=0.0)
        # 7 has recently been sending us data for this interest -> loop.
        agent._note_source(1, 7)
        assert agent._usable_outlets(1) == []
        assert w.tracer.registry.value("diffusion.loop_outlet_skipped") == 1

    def test_two_way_edge_expires_with_recency_window(self):
        w, agent = lone_agent()
        table = agent._gradient_table(1)
        agent._note_source(1, 7)
        # Advance beyond the recency window; the edge is usable again.
        w.sim.schedule(PARAMS.source_window + 1.0, lambda: None)
        w.run(until=PARAMS.source_window + 1.0)
        table.reinforce(7, now=w.sim.now)
        assert agent._usable_outlets(1) == [7]

    def test_local_pseudo_sender_does_not_block_outlets(self):
        _w, agent = lone_agent()
        table = agent._gradient_table(1)
        table.reinforce(7, now=0.0)
        agent._note_source(1, agent._LOCAL)
        assert agent._usable_outlets(1) == [7]


class TestDeadEndNegative:
    def test_dead_end_sends_negative(self):
        w, agent = lone_agent()
        sent = []
        agent.node.send = lambda msg, dst, size: sent.append((type(msg).__name__, dst)) or True
        agent._gradient_table(1)  # known interest, no gradients at all
        msg = aggregate(1, [DataItem(5, 1, 0.0)])
        agent._handle_aggregate(msg, from_id=9)
        assert ("NegativeReinforcementMsg", 9) in sent
        assert w.tracer.registry.value("diffusion.data_no_gradient") == 1

    def test_dead_end_rate_limited(self):
        w, agent = lone_agent()
        sent = []
        agent.node.send = lambda msg, dst, size: sent.append(dst) or True
        agent._gradient_table(1)
        agent._handle_aggregate(aggregate(1, [DataItem(5, 1, 0.0)]), from_id=9)
        agent._handle_aggregate(aggregate(1, [DataItem(5, 2, 0.1)]), from_id=9)
        # Only one NR per neighbor per negative window.
        assert sent.count(9) == 1

    def test_sink_never_dead_ends(self):
        w = MiniWorld(chain_positions(2))
        agents = w.attach_agents(OpportunisticAgent, params=PARAMS, sources=[0], sink=1)
        w.run(until=5.0)
        assert w.tracer.registry.value("diffusion.dead_end_negative") == 0


class TestSourceRepair:
    def test_repair_floods_exploratory_when_pathless(self):
        w = MiniWorld(chain_positions(3))
        agents = w.attach_agents(
            OpportunisticAgent, params=PARAMS, sources=[0], sink=2
        )
        w.run(until=4.0)  # converged
        # Degrade the source's only data gradient.
        table = agents[0].gradients[2]
        for neighbor in list(table.data_neighbors(w.sim.now)):
            table.degrade(neighbor)
        before = w.tracer.registry.value("diffusion.exploratory_originated")
        w.run(until=6.0)
        assert w.tracer.registry.value("diffusion.repair_exploratory") >= 1
        assert w.tracer.registry.value("diffusion.exploratory_originated") > before
        # Repair re-established delivery: the source has a data gradient.
        assert agents[0].gradients[2].has_data_gradient(w.sim.now)

    def test_repair_rate_limited(self):
        _w, agent = lone_agent()
        agent.source_for[1] = type("S", (), {"interest_id": 1})()
        calls = []
        agent._send_exploratory = lambda state: calls.append(agent.sim.now)
        agent._request_repair(1)
        agent._request_repair(1)
        assert len(calls) == 1

    def test_non_source_never_repairs(self):
        _w, agent = lone_agent()
        agent._request_repair(1)  # not a source for interest 1
        assert agent.tracer.registry.value("diffusion.repair_exploratory") == 0

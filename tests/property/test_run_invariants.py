"""End-to-end invariants over random seeds (whole-run properties)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.runner import build_world


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["greedy", "opportunistic"]),
)
@settings(max_examples=6, deadline=None)
def test_whole_run_invariants(seed, scheme):
    """For any seed: deliveries are a subset of generations, delays are
    physical, energy is non-negative, and PHY/MAC counters are
    consistent."""
    cfg = ExperimentConfig.from_profile(smoke(), scheme, 60, seed=seed, n_sources=3)
    world = build_world(cfg)
    world.sim.run(until=cfg.duration)
    world.channel.publish_counters()

    metrics = world.metrics
    # Deliveries only of generated items, each counted once per sink.
    generated = set()
    for src in world.sources:
        agent = world.agents[src]
        for state in agent.source_for.values():
            generated |= {(src, seq) for seq in range(1, state.data_seq + 1)}
    for bucket in metrics.delivered.values():
        assert bucket <= generated

    # Delays are positive and bounded by the run length.
    assert all(0.0 < d < cfg.duration for d in metrics.delays)
    assert 0.0 <= metrics.delivery_ratio() <= 1.0

    # Energy accounting is physical on every node.
    for node in world.nodes:
        assert node.energy.tx_time >= 0.0
        assert node.energy.rx_time >= 0.0
        assert node.energy.tx_time + node.energy.rx_time <= 2 * cfg.duration

    # Counter consistency: MAC receptions never exceed PHY deliveries,
    # ACKs never exceed unicast transmissions.
    c = world.tracer.counters
    assert c.get("mac.rx", 0) <= c.get("radio.rx", 0)
    assert c.get("mac.acked", 0) <= c.get("mac.tx", 0)
    assert c.get("radio.tx", 0) > 0

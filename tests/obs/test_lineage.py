"""Unit + integration tests for causal lineage reconstruction."""

import pytest

from repro.obs.lineage import LINEAGE_CATEGORIES, LineageIndex, format_tree
from repro.sim.trace import TraceRecord


def rec(time, category, **fields):
    return TraceRecord(time, category, tuple(fields.items()))


def small_run_records():
    """A two-source, one-relay, one-sink delivery with a merge."""
    return [
        rec(1.0, "data.gen", node=1, interest=9, src=1, seq=0),
        rec(1.1, "data.gen", node=2, interest=9, src=2, seq=0),
        rec(1.2, "data.tx", node=1, interest=9, keys=[[1, 0]], outlets=[3]),
        rec(1.3, "data.rx", node=3, interest=9, sender=1, keys=[[1, 0]], accepted=[[1, 0]]),
        rec(1.4, "data.rx", node=3, interest=9, sender=2, keys=[[2, 0]], accepted=[[2, 0]]),
        rec(1.5, "data.merge", node=3, interest=9, n_contributions=2,
            aggregates=[[[1, 0], [2, 0]]]),
        rec(1.6, "data.tx", node=3, interest=9, keys=[[1, 0], [2, 0]], outlets=[0]),
        rec(1.7, "data.rx", node=0, interest=9, sender=3,
            keys=[[1, 0], [2, 0]], accepted=[[1, 0], [2, 0]]),
        rec(1.7, "data.deliver", interest=9, sink=0, key=[1, 0]),
        rec(1.7, "data.deliver", interest=9, sink=0, key=[2, 0]),
    ]


class TestLineageIndex:
    def test_categories_are_registered_centrally(self):
        from repro.obs.options import TRACE_CATEGORIES

        for cat in LINEAGE_CATEGORIES:
            assert cat in TRACE_CATEGORIES

    def test_generated_and_delivered_keys(self):
        index = LineageIndex.from_records(small_run_records())
        assert index.source_events() == {(1, 0), (2, 0)}
        assert index.delivered_keys() == {(1, 0), (2, 0)}
        assert index.interests() == [9]

    def test_path_reconstruction(self):
        index = LineageIndex.from_records(small_run_records())
        assert index.path((1, 0)) == [1, 3, 0]
        assert index.path((2, 0)) == [2, 3, 0]

    def test_path_unknown_key_raises(self):
        index = LineageIndex.from_records(small_run_records())
        with pytest.raises(KeyError):
            index.path((99, 0))

    def test_termination(self):
        index = LineageIndex.from_records(small_run_records())
        assert index.terminates_in_generation((1, 0))
        assert not index.terminates_in_generation((99, 0))

    def test_delivery_tree(self):
        index = LineageIndex.from_records(small_run_records())
        tree = index.delivery_tree(9)
        assert tree.delivered_keys == 2
        assert tree.edges == {(1, 3): 1, (2, 3): 1, (3, 0): 2}
        assert tree.sources == {1, 2}
        assert tree.sinks == {0}
        assert tree.junctions() == [3]

    def test_merge_stats(self):
        index = LineageIndex.from_records(small_run_records())
        stats = index.merge_stats()
        assert stats["flushes"] == 1
        assert stats["mean_fan_in"] == pytest.approx(2.0)
        assert stats["items"] == 2

    def test_non_lineage_records_ignored(self):
        index = LineageIndex.from_records(
            [rec(0.0, "phy.tx", frame=1, src=0, dst=1, size=10, kind=0, cls="data")]
        )
        assert index.counts == {}
        assert index.source_events() == frozenset()

    def test_format_tree_mentions_junction(self):
        index = LineageIndex.from_records(small_run_records())
        text = format_tree(index.delivery_tree(9))
        assert "interest 9" in text
        assert "merge junction" in text


class TestLineageFromLiveRun:
    def test_smoke_run_lineage_is_consistent(self):
        from repro.experiments.config import ExperimentConfig, smoke
        from repro.experiments.runner import build_world

        cfg = ExperimentConfig.from_profile(smoke(), "greedy", 60, seed=4)
        world = build_world(cfg)
        index = LineageIndex()
        world.tracer.enable(*LINEAGE_CATEGORIES)
        world.tracer.add_listener(index.add)
        world.sim.run(until=cfg.duration)
        delivered = index.delivered_keys()
        assert delivered, "smoke run delivered nothing"
        # every delivered key roots in a generation and its path starts at
        # the generating source and ends at a sink
        sinks = set(world.sinks)
        for key in delivered:
            assert index.terminates_in_generation(key)
            path = index.path(key)
            assert path[0] == key[0]
            assert path[-1] in sinks
        for interest in index.interests():
            tree = index.delivery_tree(interest)
            assert tree.delivered_keys == len(index.delivered_keys(interest))

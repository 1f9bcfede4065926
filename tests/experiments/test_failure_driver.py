"""Unit tests for the §5.3 failure driver."""

import random

from repro.experiments.config import FailureModel
from repro.experiments.runner import FailureDriver
from tests.helpers import MiniWorld, grid_positions


def make_driver(n=20, fraction=0.2, epoch=5.0, exempt=()):
    w = MiniWorld(grid_positions(4, 5))
    model = FailureModel(fraction=fraction, epoch=epoch)
    driver = FailureDriver(
        w.sim, w.nodes, model, random.Random(3), exempt=frozenset(exempt)
    )
    return w, driver


class TestFailureDriver:
    def test_fraction_of_nodes_down_each_epoch(self):
        w, _driver = make_driver()
        w.run(until=0.1)
        down = [n for n in w.nodes if not n.up]
        assert len(down) == round(0.2 * len(w.nodes))

    def test_fresh_set_every_epoch(self):
        w, _driver = make_driver()
        w.run(until=0.1)
        first = {n.node_id for n in w.nodes if not n.up}
        w.run(until=5.1)
        second = {n.node_id for n in w.nodes if not n.up}
        assert len(second) == len(first)
        # Extremely unlikely to be the identical set with 20% of 20 nodes.
        w.run(until=10.1)
        third = {n.node_id for n in w.nodes if not n.up}
        assert not (first == second == third)

    def test_previous_epoch_recovers(self):
        w, _driver = make_driver()
        w.run(until=0.1)
        first = {n.node_id for n in w.nodes if not n.up}
        w.run(until=5.1)
        for node_id in first:
            node = w.nodes[node_id]
            assert node.up or node.node_id in {
                n.node_id for n in w.nodes if not n.up
            }

    def test_exempt_nodes_never_fail(self):
        w, _driver = make_driver(exempt=(0, 1))
        w.run(until=30.0)
        assert w.nodes[0].first_down_at is None
        assert w.nodes[1].first_down_at is None

    def test_at_any_instant_fraction_unusable(self):
        # "At any instant, 20% of the nodes in the network are unusable."
        w, _driver = make_driver()
        for t in (2.0, 7.0, 12.0, 17.0):
            w.run(until=t)
            down = sum(1 for n in w.nodes if not n.up)
            assert down == round(0.2 * len(w.nodes))

    def test_deterministic_schedule(self):
        seqs = []
        for _ in range(2):
            w, _driver = make_driver()
            downs = []
            for t in (0.1, 5.1, 10.1):
                w.run(until=t)
                downs.append(frozenset(n.node_id for n in w.nodes if not n.up))
            seqs.append(downs)
        assert seqs[0] == seqs[1]

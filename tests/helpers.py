"""Shared test fixtures: tiny hand-built networks with the real stack,
and a counter of the run store's hashing and entry-file reads."""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.aggregation.functions import AggregationFunction
from repro.diffusion.agent import DiffusionAgent, DiffusionParams
from repro.diffusion.attributes import AttributeSet, InterestSpec, Op, Predicate
from repro.net.energy import EnergyParams
from repro.net.mac import MacParams
from repro.net.node import Node
from repro.net.radio import Channel, RadioParams
from repro.sim import RngRegistry, Simulator, Tracer

#: interest used by the mini-world tests (sources carry target=True)
TEST_SPEC = InterestSpec.of(
    Predicate("task", Op.IS, "tracking"),
    Predicate("target", Op.IS, True),
)


class MiniWorld:
    """A small wireless network at explicit coordinates.

    Builds the full real stack (simulator, channel, radios, MACs, nodes)
    so protocol tests exercise genuine packet exchange, with geometry
    chosen by the test (e.g. a chain with 40 m spacing).
    """

    def __init__(
        self,
        positions: Sequence[tuple[float, float]],
        seed: int = 1,
        range_m: float = 40.0,
        mac_params: Optional[MacParams] = None,
    ) -> None:
        self.sim = Simulator()
        self.tracer = Tracer(lambda: self.sim.now)
        self.rngs = RngRegistry(seed)
        self.channel = Channel(self.sim, self.tracer, RadioParams(range_m=range_m))
        self.nodes = [
            Node(
                i,
                x,
                y,
                self.sim,
                self.channel,
                self.tracer,
                self.rngs,
                energy_params=EnergyParams(),
                mac_params=mac_params,
            )
            for i, (x, y) in enumerate(positions)
        ]
        self.agents: list[DiffusionAgent] = []

    def attach_agents(
        self,
        agent_cls: type[DiffusionAgent],
        params: Optional[DiffusionParams] = None,
        aggfn: Optional[AggregationFunction] = None,
        metrics=None,
        sources: Sequence[int] = (),
        sink: Optional[int] = None,
    ) -> list[DiffusionAgent]:
        """Install one agent per node; mark sources and optionally a sink."""
        params = params or DiffusionParams(
            exploratory_interval=8.0, interest_interval=4.0
        )
        self.agents = [agent_cls(node, params, aggfn, metrics) for node in self.nodes]
        for src in sources:
            node = self.nodes[src]
            self.agents[src].attributes = AttributeSet(
                {"task": "tracking", "x": node.x, "y": node.y, "target": True}
            )
        if sink is not None:
            self.agents[sink].attach_sink(interest_id=sink, spec=TEST_SPEC)
        return self.agents

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def chain_positions(n: int, spacing: float = 35.0) -> list[tuple[float, float]]:
    """n nodes on a line, each hearing only its direct neighbors."""
    return [(i * spacing, 0.0) for i in range(n)]


def grid_positions(rows: int, cols: int, spacing: float = 30.0) -> list[tuple[float, float]]:
    return [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]


def count_store_work(monkeypatch) -> Counter:
    """Count ``run_key`` calls and entry-file reads for the rest of a test.

    ``run_key`` is wrapped in every module that calls it on the lookup
    path (the store, ``run_configs``, request parsing), and
    ``RunStore._read_entry`` in its class.  The counter's keys are
    ``"run_key"`` and ``"read"``.
    """
    import repro.experiments.store as store_mod
    import repro.experiments.sweeps as sweeps_mod
    import repro.service.jobs as jobs_mod

    counts: Counter = Counter()
    real_key = store_mod.run_key
    real_read = store_mod.RunStore._read_entry

    def counted_key(cfg):
        counts["run_key"] += 1
        return real_key(cfg)

    def counted_read(path):
        counts["read"] += 1
        return real_read(path)

    for module in (store_mod, sweeps_mod, jobs_mod):
        monkeypatch.setattr(module, "run_key", counted_key)
    monkeypatch.setattr(store_mod.RunStore, "_read_entry", staticmethod(counted_read))
    return counts

"""Field connectivity without networkx, checked against a networkx reference.

``SensorField`` answers ``is_connected()`` and ``mean_degree()`` from a
grid-walk adjacency list and builds ``connectivity_graph()`` from that
list.  The reference below is the earlier implementation: the same grid
walk adding each edge straight into an ``nx.Graph``, checked with
``nx.is_connected``.  Tree tie-breaks depend on the graph's edge and
adjacency order, so both must match it exactly.

The last two tests run fresh interpreters: importing the package, the
CLI and the daemon, and running a disc and a pathloss experiment, must
not load networkx, while the tree references still give their pinned
values.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import ChannelSpec, model_from_spec
from repro.net.topology import SensorField

SRC = Path(__file__).resolve().parents[2] / "src"


def reference_graph(positions, radius: float) -> nx.Graph:
    """The earlier ``SensorField._build_graph``; no edges for radius <= 0."""
    g = nx.Graph()
    g.add_nodes_from(range(len(positions)))
    if radius <= 0:
        return g
    cell = radius
    grid: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(positions):
        grid.setdefault((int(x // cell), int(y // cell)), []).append(i)
    r2 = radius**2
    for i, (x, y) in enumerate(positions):
        cx, cy = int(x // cell), int(y // cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in grid.get((cx + dx, cy + dy), ()):
                    if j <= i:
                        continue
                    ox, oy = positions[j]
                    if (x - ox) ** 2 + (y - oy) ** 2 <= r2:
                        g.add_edge(i, j, weight=1.0)
    return g


# Integer coordinates put pairs exactly at the radius and on cell borders.
coordinate = st.one_of(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.integers(min_value=0, max_value=200).map(float),
)
positions = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=80)
nominal = st.one_of(st.floats(min_value=5.0, max_value=90.0), st.sampled_from([20.0, 40.0]))
#: a pathloss reach differs from the nominal disc radius
PATHLOSS_REACH_40M = model_from_spec(ChannelSpec(model="pathloss"), 40.0).reach_m
other_reach = st.one_of(
    st.just(PATHLOSS_REACH_40M), st.floats(min_value=1.0, max_value=120.0)
)
no_reach = st.sampled_from([0.0, -1.0, -40.0])


def assert_same_graph(got: nx.Graph, want: nx.Graph) -> None:
    assert list(got.nodes) == list(want.nodes)
    assert list(got.edges(data=True)) == list(want.edges(data=True))
    assert [list(got.adj[i]) for i in got] == [list(want.adj[i]) for i in want]


def mean_degree(g: nx.Graph) -> float:
    return 2.0 * g.number_of_edges() / g.number_of_nodes()


class TestAgainstNetworkx:
    @given(positions, nominal)
    @settings(max_examples=150, deadline=None)
    def test_nominal_radius(self, pos, range_m):
        fld = SensorField(pos, 200.0, range_m)
        want = reference_graph(pos, range_m)
        assert fld.is_connected() == nx.is_connected(want)
        assert fld.mean_degree() == mean_degree(want)
        assert fld.mean_degree(range_m) == mean_degree(want)
        assert_same_graph(fld.connectivity_graph(), want)
        assert fld.connectivity_graph(range_m) is fld.connectivity_graph()

    @given(positions, nominal, st.one_of(other_reach, no_reach))
    @settings(max_examples=150, deadline=None)
    def test_other_radius(self, pos, range_m, reach):
        fld = SensorField(pos, 200.0, range_m)
        want = reference_graph(pos, reach)
        # asking for the degree first must not change the graph built later
        assert fld.mean_degree(reach) == mean_degree(want)
        assert_same_graph(fld.connectivity_graph(reach), want)
        assert fld.is_connected() == nx.is_connected(reference_graph(pos, range_m))


def run_fresh(program: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(program)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestNetworkxOnlyForTrees:
    def test_packet_level_path_never_imports_networkx(self):
        out = run_fresh(
            """
            import sys
            import repro, repro.cli, repro.service.http
            from repro import ExperimentConfig, run_experiment
            from repro.net.channel import ChannelSpec
            for channel in (ChannelSpec(), ChannelSpec(model="pathloss")):
                run_experiment(ExperimentConfig(
                    scheme="greedy", n_nodes=50, seed=1, duration=10.0, warmup=4.0,
                    channel=channel))
            print("networkx" in sys.modules)
            """
        )
        assert out.strip() == "False"

    def test_tree_references_keep_their_values(self):
        out = run_fresh(
            """
            from repro import ExperimentConfig, git_vs_spt_table, run_experiment
            from repro.experiments.inspect import compare_with_ideal
            from repro.experiments.runner import build_world

            m = run_experiment(ExperimentConfig(
                scheme="omniscient", n_nodes=80, seed=2, duration=20.0, warmup=8.0))
            print(repr((m.avg_dissipated_energy, m.distinct_delivered, m.mean_degree)))
            c = ExperimentConfig(
                scheme="greedy", n_nodes=80, seed=2, duration=20.0, warmup=8.0)
            w = build_world(c)
            w.sim.run(until=c.duration)
            print(repr(compare_with_ideal(w)))
            rows = git_vs_spt_table(n_nodes=(80,), n_sources=3, trials=2, seed=1)
            print(repr([(r["placement"], r["mean_spt_cost"], r["mean_git_cost"],
                         r["mean_steiner_cost"], r["mean_savings"]) for r in rows]))
            """
        )
        omniscient, ideal, table = out.strip().splitlines()
        assert omniscient == "(4.524285416668847e-05, 120, 8.1)"
        assert ideal == (
            "{'distributed_edges': 19.0, 'spt_edges': 16.0, "
            "'git_edges': 12.0, 'steiner_edges': 12.0}"
        )
        assert table == (
            "[('event-radius', 9.0, 7.0, 7.0, 0.2), "
            "('random-sources', 8.5, 8.5, 8.5, 0.0), "
            "('corner', 15.0, 9.5, 9.5, 0.3687782805429864)]"
        )

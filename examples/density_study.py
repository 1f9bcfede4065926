#!/usr/bin/env python3
"""Density study: a compact reproduction of the paper's headline figure.

Sweeps network density (the paper's fig 5) with a small trial budget and
prints the three panels plus the greedy-over-opportunistic savings, then
compares the packet-level result against the *centralized* ideal trees
(SPT vs GIT) on the same fields — the abstract model of repro.trees.

Run:  python examples/density_study.py          (~2-4 minutes)
      python examples/density_study.py --quick  (~40 seconds)
"""

import random
import sys

from repro import fast, figure_plan, format_figure, run_figure_plan
from repro.net import generate_field
from repro.net.topology import corner_sink_node, corner_source_nodes
from repro.trees import greedy_incremental_tree, shortest_path_tree, tree_cost


def packet_level(densities, trials):
    print("=== packet-level simulation (directed diffusion) ===")
    result = run_figure_plan(figure_plan("fig5", fast(), trials=trials, xs=densities))
    print(format_figure(result))
    print()
    return result


def centralized(densities):
    print("=== centralized ideal trees on the same geometry ===")
    print(f"{'nodes':>6} {'SPT edges':>10} {'GIT edges':>10} {'savings':>8}")
    rng = random.Random(99)
    for n in densities:
        spt_costs, git_costs = [], []
        for _ in range(5):
            field = generate_field(n, rng)
            sink = corner_sink_node(field, rng)
            sources = corner_source_nodes(field, 5, rng, exclude={sink})
            graph = field.connectivity_graph()
            spt_costs.append(tree_cost(shortest_path_tree(graph, sink, sources)))
            git_costs.append(
                tree_cost(greedy_incremental_tree(graph, sink, sources, order="nearest"))
            )
        spt, git = sum(spt_costs) / 5, sum(git_costs) / 5
        print(f"{n:>6} {spt:>10.1f} {git:>10.1f} {1 - git / spt:>7.1%}")


def main() -> None:
    quick = "--quick" in sys.argv
    densities = (50, 250) if quick else (50, 150, 250, 350)
    trials = 1 if quick else 2
    result = packet_level(densities, trials)
    centralized(densities)
    print()
    peak = result.max_energy_savings()
    print(f"Peak packet-level energy savings of greedy aggregation: {peak:.1%}.")
    print("The centralized table shows the structural cause: the greedy")
    print("incremental tree needs far fewer edges than the union of")
    print("shortest paths once the network is dense.")


if __name__ == "__main__":
    main()

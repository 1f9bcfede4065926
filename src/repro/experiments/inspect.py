"""Inspection tools: extract and analyze the live aggregation tree.

The protocol is fully distributed — no node knows the tree — but the
simulation can read every node's gradient table and reconstruct the
structure the local rules built.  This is how the examples visualize
trees and how tests verify that the distributed greedy scheme actually
converges to (near-)GIT structures.

* :func:`active_tree` — the directed graph of live data gradients for
  one interest (edge = node -> its preferred downstream neighbor).
* :func:`tree_stats` — edges, junctions, depth, and stranded sources.
* :func:`compare_with_ideal` — the distributed tree's edge count against
  the centralized SPT / GIT / KMB references on the same field.
* :func:`delivery_timeline` — delivered-events-per-interval series (used
  by the failure study to see outages and repairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..trees.git import greedy_incremental_tree
from ..trees.spt import shortest_path_tree, tree_cost
from ..trees.steiner import steiner_tree_kmb
from .metrics import MetricsCollector
from .runner import World

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TreeStats", "active_tree", "tree_stats", "compare_with_ideal", "delivery_timeline"]


def active_tree(
    world: World, interest_id: Optional[int] = None, prune: bool = True
) -> nx.DiGraph:
    """The live data-gradient graph for ``interest_id`` (default: the
    first sink's interest).  Each node has at most one outgoing edge (the
    single-preferred-neighbor invariant), so the result is a functional
    graph that — absent transient loops — is a forest rooted at the sink.

    With ``prune`` (default) only the paths actually carrying traffic are
    kept: the chains followed from the workload's sources.  Unpruned, the
    graph also shows residual gradients on abandoned branches whose data
    strength has not yet decayed.
    """
    import networkx as nx

    if interest_id is None:
        if not world.sinks:
            raise ValueError("world has no sinks")
        interest_id = world.sinks[0]
    now = world.sim.now
    tree = nx.DiGraph()
    for agent in world.agents:
        table = agent.gradients.get(interest_id)
        if table is None:
            continue
        for parent in table.data_neighbors(now):
            tree.add_edge(agent.node.node_id, parent)
    if not prune:
        return tree
    pruned = nx.DiGraph()
    for source in world.sources:
        node = source
        seen = set()
        while node in tree and node not in seen:
            seen.add(node)
            successors = list(tree.successors(node))
            if not successors:
                break
            pruned.add_edge(node, successors[0])
            node = successors[0]
    return pruned


@dataclass(frozen=True)
class TreeStats:
    """Shape summary of one distributed aggregation tree."""

    n_edges: int
    n_nodes: int
    #: nodes where >= 2 branches meet (potential aggregation points)
    n_junctions: int
    #: longest source -> sink hop distance (0 when nothing is connected)
    depth: int
    #: sources with no live path to the sink
    stranded_sources: tuple[int, ...]


def tree_stats(tree: nx.DiGraph, sources: Sequence[int], sink: int) -> TreeStats:
    """Summarize a data-gradient graph relative to its workload."""
    import networkx as nx

    junctions = sum(1 for n in tree.nodes if tree.in_degree(n) >= 2)
    depth = 0
    stranded = []
    for source in sources:
        if source in tree and nx.has_path(tree, source, sink):
            depth = max(depth, nx.shortest_path_length(tree, source, sink))
        else:
            stranded.append(source)
    return TreeStats(
        n_edges=tree.number_of_edges(),
        n_nodes=tree.number_of_nodes(),
        n_junctions=junctions,
        depth=depth,
        stranded_sources=tuple(sorted(stranded)),
    )


def compare_with_ideal(world: World, interest_id: Optional[int] = None) -> dict[str, float]:
    """Distributed tree size vs centralized references on the same field.

    Returns edge counts for the live tree, the SPT union, the
    nearest-first GIT, and the KMB Steiner approximation, computed for
    the given interest's sink over the world's sources.
    """
    sink = world.sinks[0] if interest_id is None else interest_id
    graph = world.field.connectivity_graph()
    live = active_tree(world, interest_id)
    return {
        "distributed_edges": float(live.number_of_edges()),
        "spt_edges": tree_cost(shortest_path_tree(graph, sink, world.sources)),
        "git_edges": tree_cost(
            greedy_incremental_tree(graph, sink, world.sources, order="nearest")
        ),
        "steiner_edges": tree_cost(steiner_tree_kmb(graph, [sink, *world.sources])),
    }


def delivery_timeline(
    metrics: MetricsCollector, bucket: float, until: float
) -> list[tuple[float, int]]:
    """Delivered distinct events per ``bucket`` seconds of simulated time.

    Useful to see failure outages and exploratory-round repairs as dips
    and recoveries (fig 6's mechanism, viewed over time).
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    n_buckets = int(until / bucket) + 1
    counts = [0] * n_buckets
    for t in metrics.delivery_times:
        idx = int(t / bucket)
        if 0 <= idx < n_buckets:
            counts[idx] += 1
    return [(i * bucket, c) for i, c in enumerate(counts)]

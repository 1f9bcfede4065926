"""Shortest-path tree (SPT) over a connectivity graph.

The abstract baseline from Krishnamachari et al.'s data-centric routing
model: every source routes to the sink along a shortest path, and the
"tree" is the union of those paths.  With perfect aggregation the cost of
a dissemination round equals the number of distinct edges used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["shortest_path_tree", "tree_cost", "validate_tree"]


def shortest_path_tree(
    graph: nx.Graph, sink: int, sources: Sequence[int], weight: Optional[str] = None
) -> nx.Graph:
    """Union of one shortest path per source toward ``sink``.

    Paths are taken from a single shortest-path run rooted at the sink, so
    they share consistent predecessors and their union is a proper tree.
    Raises ``KeyError`` when a source is disconnected from the sink.
    """
    import networkx as nx

    if weight is None:
        paths = nx.single_source_shortest_path(graph, sink)
    else:
        paths = nx.single_source_dijkstra_path(graph, sink, weight=weight)
    tree = nx.Graph()
    tree.add_node(sink)
    for source in sources:
        nx.add_path(tree, paths[source])
    return tree


def tree_cost(tree: nx.Graph, weight: Optional[str] = None) -> float:
    """Cost of one perfect-aggregation round: total edge weight (hops)."""
    if weight is None:
        return float(tree.number_of_edges())
    return float(sum(d.get(weight, 1.0) for _u, _v, d in tree.edges(data=True)))


def validate_tree(tree: nx.Graph, sink: int, sources: Iterable[int]) -> None:
    """Assert structural invariants: connected, acyclic, spans terminals."""
    import networkx as nx

    terminals = set(sources) | {sink}
    missing = terminals - set(tree.nodes)
    if missing:
        raise ValueError(f"tree misses terminals {sorted(missing)}")
    if tree.number_of_nodes() and not nx.is_connected(tree):
        raise ValueError("tree is not connected")
    if tree.number_of_edges() != tree.number_of_nodes() - 1:
        raise ValueError("subgraph contains a cycle (not a tree)")

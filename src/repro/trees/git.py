"""Greedy incremental tree (GIT) — Takahashi & Matsuyama's Steiner heuristic.

The centralized ideal the paper's distributed protocol approximates
(§1: "a shortest path is established for only the first source to the
sink whereas each of the other sources is incrementally connected at the
closest point on the existing tree").

Two connection orders are supported:

* ``order="given"`` — sources join in the order supplied (what the
  distributed protocol does: whoever's exploratory round is decided first
  joins first);
* ``order="nearest"`` — the classical Takahashi-Matsuyama rule: always
  connect the terminal currently closest to the tree (a 2-approximation
  of the Steiner minimum tree).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["greedy_incremental_tree"]


def _closest_attachment(
    graph: nx.Graph, tree_nodes: set[int], target: int, weight: Optional[str]
) -> tuple[float, list[int]]:
    """Cheapest path from ``target`` to any node of the tree.

    One Dijkstra (or BFS) from the target, stopped at the first settled
    tree node — the multi-target trick keeps GIT near O(S · E log V).
    """
    if target in tree_nodes:
        return 0.0, [target]
    dist = {target: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, target)]
    visited: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        if u in tree_nodes:
            path = [u]
            while path[-1] != target:
                path.append(prev[path[-1]])
            return d, path[::-1]  # target ... tree node
        for v, edge in graph[u].items():
            w = 1.0 if weight is None else float(edge.get(weight, 1.0))
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    import networkx as nx

    raise nx.NetworkXNoPath(f"node {target} cannot reach the tree")


def greedy_incremental_tree(
    graph: nx.Graph,
    sink: int,
    sources: Sequence[int],
    order: str = "given",
    weight: Optional[str] = None,
) -> nx.Graph:
    """Build the GIT spanning ``sources`` and ``sink``."""
    import networkx as nx

    if order not in ("given", "nearest"):
        raise ValueError("order must be 'given' or 'nearest'")
    tree = nx.Graph()
    tree.add_node(sink)
    tree_nodes = {sink}
    remaining = list(sources)

    while remaining:
        if order == "given":
            target = remaining.pop(0)
            _cost, path = _closest_attachment(graph, tree_nodes, target, weight)
        else:
            best = None
            for candidate in remaining:
                cost, path = _closest_attachment(graph, tree_nodes, candidate, weight)
                if best is None or cost < best[0]:
                    best = (cost, path, candidate)
            assert best is not None
            _cost, path, target = best
            remaining.remove(target)
        nx.add_path(tree, path)
        tree_nodes.update(path)
    return tree

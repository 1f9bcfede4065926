"""Steiner-tree 2-approximation (Kou-Markowsky-Berman).

Finding the optimal aggregation tree is "equivalent to finding the Steiner
tree that is known to be NP-hard" (§1).  The KMB metric-closure
approximation gives a principled lower-ish reference point between GIT and
the (intractable) optimum, used by the tree benchmarks and as a sanity
bound in property tests (KMB cost <= 2·OPT, and OPT <= GIT cost).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["steiner_tree_kmb"]


def steiner_tree_kmb(
    graph: nx.Graph, terminals: Sequence[int], weight: Optional[str] = None
) -> nx.Graph:
    """Kou-Markowsky-Berman 2-approximate Steiner tree over ``terminals``.

    1. Build the metric closure restricted to terminals.
    2. Take its minimum spanning tree.
    3. Expand closure edges back into shortest paths.
    4. Take the MST of the expansion and prune non-terminal leaves.
    """
    import networkx as nx

    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        raise ValueError("need at least one terminal")
    if len(terminals) == 1:
        t = nx.Graph()
        t.add_node(terminals[0])
        return t

    # 1. metric closure over terminals (one SSSP per terminal).
    closure = nx.Graph()
    paths: dict[tuple[int, int], list[int]] = {}
    for t in terminals:
        if weight is None:
            dist = nx.single_source_shortest_path_length(graph, t)
            path = nx.single_source_shortest_path(graph, t)
        else:
            dist, path = nx.single_source_dijkstra(graph, t, weight=weight)
        for u in terminals:
            if u == t:
                continue
            if u not in dist:
                raise nx.NetworkXNoPath(f"terminals {t} and {u} are disconnected")
            closure.add_edge(t, u, weight=float(dist[u]))
            paths[(t, u)] = path[u]

    # 2. MST of the closure.
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")

    # 3. expand into the original graph.
    expanded = nx.Graph()
    for u, v in closure_mst.edges():
        p = paths.get((u, v)) or paths[(v, u)]
        nx.add_path(expanded, p)
    for u, v in expanded.edges():
        w = 1.0 if weight is None else float(graph[u][v].get(weight, 1.0))
        expanded[u][v]["weight"] = w

    # 4. MST of the expansion, then prune non-terminal leaves.
    tree = nx.minimum_spanning_tree(expanded, weight="weight")
    terminal_set = set(terminals)
    pruned = True
    while pruned:
        pruned = False
        for node in [n for n in tree.nodes if tree.degree(n) == 1 and n not in terminal_set]:
            tree.remove_node(node)
            pruned = True
    return tree


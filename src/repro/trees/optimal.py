"""Exact Steiner minimum tree (Dreyfus-Wagner dynamic program).

The paper grounds its design in hardness: "finding the optimal
aggregation tree is computationally infeasible because it is equivalent
to finding the Steiner tree that is known to be NP-hard" (§1).  For small
instances the optimum *is* computable — the classical Dreyfus-Wagner
recurrence runs in O(3^k · n + 2^k · n^2 + SSSP) for k terminals — and
having it lets the test suite verify the guarantees the heuristics claim:

* KMB cost <= 2 · OPT (the 2-approximation bound);
* GIT cost <= 2 · OPT (Takahashi-Matsuyama's bound);
* OPT <= GIT <= SPT (the orderings the evaluation relies on).

The bench `test_git_vs_spt.py` and `tests/property/test_trees_props.py`
use this as ground truth; it refuses instances with too many terminals.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["steiner_tree_exact", "steiner_cost_exact"]

_MAX_TERMINALS = 10


def _all_pairs_paths(graph: nx.Graph, weight: Optional[str]):
    """Shortest-path lengths and paths between all node pairs."""
    import networkx as nx

    if weight is None:
        dist = dict(nx.all_pairs_shortest_path_length(graph))
        path = dict(nx.all_pairs_shortest_path(graph))
    else:
        dist = dict(nx.all_pairs_dijkstra_path_length(graph, weight=weight))
        path = dict(nx.all_pairs_dijkstra_path(graph, weight=weight))
    return dist, path


def steiner_cost_exact(
    graph: nx.Graph, terminals: Sequence[int], weight: Optional[str] = None
) -> float:
    """Cost of the Steiner minimum tree over ``terminals``."""
    tree = steiner_tree_exact(graph, terminals, weight=weight)
    if weight is None:
        return float(tree.number_of_edges())
    return float(sum(d.get(weight, 1.0) for _u, _v, d in tree.edges(data=True)))


def steiner_tree_exact(
    graph: nx.Graph, terminals: Sequence[int], weight: Optional[str] = None
) -> nx.Graph:
    """Dreyfus-Wagner exact Steiner tree (small terminal sets only)."""
    import networkx as nx

    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        raise ValueError("need at least one terminal")
    if len(terminals) > _MAX_TERMINALS:
        raise ValueError(
            f"exact Steiner limited to {_MAX_TERMINALS} terminals, got {len(terminals)}"
        )
    if len(terminals) == 1:
        t = nx.Graph()
        t.add_node(terminals[0])
        return t

    dist, path = _all_pairs_paths(graph, weight)
    for t in terminals:
        for u in terminals:
            if u not in dist.get(t, {}):
                raise nx.NetworkXNoPath(f"terminals {t} and {u} are disconnected")

    nodes = list(graph.nodes)
    root = terminals[-1]
    others = terminals[:-1]
    k = len(others)
    full_mask = (1 << k) - 1

    # dp[(mask, v)] = cost of the optimal tree spanning {others[i] : i in
    # mask} plus node v; back[(mask, v)] reconstructs it.
    dp: dict[tuple[int, int], float] = {}
    back: dict[tuple[int, int], tuple] = {}

    for i, t in enumerate(others):
        for v in nodes:
            m = 1 << i
            dp[(m, v)] = dist[t].get(v, float("inf"))
            back[(m, v)] = ("path", t, v)

    for size in range(2, k + 1):
        for combo in combinations(range(k), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            # Phase 1: merge two sub-trees at v.
            merged: dict[int, float] = {}
            merged_back: dict[int, tuple] = {}
            sub = (mask - 1) & mask
            while sub > 0:
                rest = mask ^ sub
                if sub < rest:  # consider each split once
                    for v in nodes:
                        c = dp[(sub, v)] + dp[(rest, v)]
                        if c < merged.get(v, float("inf")):
                            merged[v] = c
                            merged_back[v] = ("merge", sub, rest, v)
                sub = (sub - 1) & mask
            # Phase 2: connect the merge point to v over a shortest path.
            for v in nodes:
                best = float("inf")
                best_back = None
                for u, cu in merged.items():
                    c = cu + dist[u].get(v, float("inf"))
                    if c < best:
                        best = c
                        best_back = ("steiner", u, v, merged_back[u])
                dp[(mask, v)] = best
                back[(mask, v)] = best_back  # type: ignore[assignment]

    # Reconstruct edges.
    tree = nx.Graph()
    tree.add_node(root)

    def add_path(a: int, b: int) -> None:
        nx.add_path(tree, path[a][b])

    def expand(mask: int, v: int) -> None:
        entry = back[(mask, v)]
        if entry[0] == "path":
            _tag, t, vv = entry
            add_path(t, vv)
            return
        assert entry[0] == "steiner"
        _tag, u, vv, merge_entry = entry
        add_path(u, vv)
        _mtag, sub, rest, mv = merge_entry
        expand(sub, mv)
        expand(rest, mv)

    expand(full_mask, root)
    if weight is not None:
        for u, v in tree.edges():
            tree[u][v][weight] = graph[u][v].get(weight, 1.0)
    # Prune non-terminal leaves left by overlapping path expansions.
    terminal_set = set(terminals)
    pruned = True
    while pruned:
        pruned = False
        for node in [n for n in tree.nodes if tree.degree(n) == 1 and n not in terminal_set]:
            tree.remove_node(node)
            pruned = True
    return tree

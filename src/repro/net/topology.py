"""Sensor-field generation and source/sink placement schemes.

Implements the paper's experimental geometry (§5.1):

* fields are ``field_size x field_size`` squares (200 m x 200 m) with
  ``n`` uniformly random nodes; seven densities, 50..350 nodes, give mean
  radio degrees of roughly 6..43 at 40 m range;
* **corner placement** (the paper's main scheme, aimed at high-level data
  aggregation): the 5 sources are random nodes inside an 80 m x 80 m square
  at the bottom-left corner, the sink a random node inside a
  36 m x 36 m square at the top-right corner;
* **random source placement** (§5.4 / fig 7): sources anywhere;
* **scattered sinks** (§5.4 / fig 8): first sink at the top-right corner,
  the rest uniformly scattered;
* **event-radius model** (Krishnamachari et al., used by ``repro.trees``):
  sources are the nodes within radius ``S`` of a random event point.

Fields can optionally be re-drawn until the connectivity graph is
connected; at the paper's lowest density (~6 neighbors) random fields are
occasionally partitioned, and the paper's metrics are only meaningful for
connected source/sink pairs.

A field answers connectivity questions (:meth:`SensorField.is_connected`,
:meth:`SensorField.mean_degree`) from a plain adjacency list, built once
per radius by a grid walk.  The networkx graph of
:meth:`SensorField.connectivity_graph` is built from that list only when
tree code asks for it, so packet-level runs never import networkx.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "SensorField",
    "generate_field",
    "corner_source_nodes",
    "corner_sink_node",
    "random_source_nodes",
    "scattered_sink_nodes",
    "event_radius_sources",
    "expected_degree",
]


def expected_degree(n: int, field_size: float, range_m: float) -> float:
    """Mean number of neighbors for ``n`` uniform nodes (border-effect-free
    approximation: n * pi * r^2 / A).

    Sanity anchor from the paper: 50..350 nodes on 200 m with 40 m range
    give about 6..43 neighbors.
    """
    return n * math.pi * range_m**2 / field_size**2


@dataclass
class SensorField:
    """A generated sensor field: node positions plus geometry metadata.

    ``redraws`` is the number of *discarded* draws the
    redraw-until-connected loop went through before this field came out
    connected (0 = the first draw was already connected).  It is not an
    RNG seed — the generating seed lives in the experiment config — and
    is surfaced in run manifests so cached and fresh fields can be told
    apart and compared.
    """

    positions: list[tuple[float, float]]
    field_size: float
    range_m: float
    redraws: int = 0
    #: per-radius adjacency lists (see _adjacency)
    _adjacency_by_radius: dict = field(default_factory=dict, repr=False, compare=False)
    #: per-radius networkx graphs, built only when tree code asks
    _graphs: dict = field(default_factory=dict, repr=False, compare=False)
    #: cached (n, 2) position matrix for vectorized geometry queries
    _pos_arr: np.ndarray = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    @property
    def n(self) -> int:
        return len(self.positions)

    def _adjacency(self, range_m: float | None) -> list[list[int]]:
        """Each node's neighbors within ``range_m`` (default: the nominal
        radius), cached per radius; a radius <= 0 links nothing.

        Node ``i`` lists its lower-numbered neighbors in ascending order,
        then its higher-numbered ones in grid-walk order (cells
        ``dx, dy`` in -1..1, each cell in id order).  That is the order
        in which :meth:`connectivity_graph` inserts edges, and tree
        tie-breaks depend on it.
        """
        radius = self.range_m if range_m is None else range_m
        adj = self._adjacency_by_radius.get(radius)
        if adj is not None:
            return adj
        adj = [[] for _ in range(self.n)]
        if radius > 0:
            cell = radius
            grid: dict[tuple[int, int], list[int]] = {}
            for i, (x, y) in enumerate(self.positions):
                grid.setdefault((int(x // cell), int(y // cell)), []).append(i)
            r2 = radius**2
            for i, (x, y) in enumerate(self.positions):
                cx, cy = int(x // cell), int(y // cell)
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for j in grid.get((cx + dx, cy + dy), ()):
                            if j <= i:
                                continue
                            ox, oy = self.positions[j]
                            if (x - ox) ** 2 + (y - oy) ** 2 <= r2:
                                adj[i].append(j)
                                adj[j].append(i)
        self._adjacency_by_radius[radius] = adj
        return adj

    def connectivity_graph(self, range_m: float | None = None) -> nx.Graph:
        """Unit-disc connectivity graph (cached).  Edge weight = 1 hop,
        matching the paper's fixed-power "energy == hops" convention.

        ``range_m`` overrides the field's nominal radius — used to report
        connectivity at a channel model's actual reach (which equals the
        nominal radius for disc, so the default path stays untouched).
        Graphs are cached per radius.
        """
        radius = self.range_m if range_m is None else range_m
        g = self._graphs.get(radius)
        if g is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            for i, neighbors in enumerate(self._adjacency(radius)):
                for j in neighbors:
                    if j > i:
                        g.add_edge(i, j, weight=1.0)
            self._graphs[radius] = g
        return g

    def is_connected(self) -> bool:
        """Whether the nominal-radius connectivity graph is connected."""
        adj = self._adjacency(None)
        if not adj:
            return False
        seen = [False] * len(adj)
        seen[0] = True
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return all(seen)

    def mean_degree(self, range_m: float | None = None) -> float:
        adj = self._adjacency(range_m)
        if not adj:
            return 0.0
        return sum(len(neighbors) for neighbors in adj) / len(adj)

    def distance(self, a: int, b: int) -> float:
        (ax, ay), (bx, by) = self.positions[a], self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def position_array(self) -> np.ndarray:
        """The positions as a cached ``(n, 2)`` float64 matrix.

        Do not mutate — positions are fixed once the field is drawn.
        """
        if self._pos_arr is None:
            self._pos_arr = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        return self._pos_arr

    def nodes_in_square(self, x0: float, y0: float, side: float) -> list[int]:
        """Node ids whose position lies inside [x0, x0+side] x [y0, y0+side].

        Vectorized over the cached position matrix; the result is in
        ascending node-id order, exactly like the list-scan it replaced
        (placement RNG draws depend on that order).
        """
        pos = self.position_array()
        x, y = pos[:, 0], pos[:, 1]
        inside = (x >= x0) & (x <= x0 + side) & (y >= y0) & (y <= y0 + side)
        return [int(i) for i in np.nonzero(inside)[0]]


def generate_field(
    n: int,
    rng: random.Random,
    field_size: float = 200.0,
    range_m: float = 40.0,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> SensorField:
    """Generate a random field; optionally redraw until connected."""
    if n < 2:
        raise ValueError("a field needs at least two nodes")
    for attempt in range(max_attempts):
        positions = [
            (rng.uniform(0.0, field_size), rng.uniform(0.0, field_size)) for _ in range(n)
        ]
        fld = SensorField(positions, field_size, range_m, redraws=attempt)
        if not require_connected or fld.is_connected():
            return fld
    raise RuntimeError(
        f"could not generate a connected field of {n} nodes in {max_attempts} attempts"
    )


# ----------------------------------------------------------------------
# placement schemes
# ----------------------------------------------------------------------
def _pick(rng: random.Random, candidates: list[int], k: int, exclude: set[int]) -> list[int]:
    pool = [c for c in candidates if c not in exclude]
    if len(pool) < k:
        raise ValueError(f"need {k} nodes but only {len(pool)} candidates available")
    return rng.sample(pool, k)


def _nearest_to(
    fld: SensorField, point: tuple[float, float], k: int, exclude: set[int]
) -> list[int]:
    ranked = sorted(
        (i for i in range(fld.n) if i not in exclude),
        key=lambda i: (fld.positions[i][0] - point[0]) ** 2
        + (fld.positions[i][1] - point[1]) ** 2,
    )
    return ranked[:k]


def corner_source_nodes(
    fld: SensorField,
    n_sources: int,
    rng: random.Random,
    square_side: float = 80.0,
    exclude: set[int] | None = None,
) -> list[int]:
    """The paper's source scheme: random nodes in the bottom-left square.

    If the square holds fewer than ``n_sources`` nodes (possible at the
    lowest density), the nearest nodes to the square's center fill in —
    the workload must always have the requested source count.
    """
    exclude = exclude or set()
    inside = [i for i in fld.nodes_in_square(0.0, 0.0, square_side) if i not in exclude]
    if len(inside) >= n_sources:
        return rng.sample(inside, n_sources)
    extra = _nearest_to(
        fld, (square_side / 2, square_side / 2), n_sources - len(inside), exclude | set(inside)
    )
    return inside + extra


def corner_sink_node(
    fld: SensorField,
    rng: random.Random,
    square_side: float = 36.0,
    exclude: set[int] | None = None,
) -> int:
    """The paper's sink scheme: a random node in the top-right square."""
    exclude = exclude or set()
    x0 = fld.field_size - square_side
    inside = [i for i in fld.nodes_in_square(x0, x0, square_side) if i not in exclude]
    if inside:
        return rng.choice(inside)
    corner = (fld.field_size - square_side / 2, fld.field_size - square_side / 2)
    return _nearest_to(fld, corner, 1, exclude)[0]


def random_source_nodes(
    fld: SensorField, n_sources: int, rng: random.Random, exclude: set[int] | None = None
) -> list[int]:
    """Fig-7 scheme: sources anywhere in the field."""
    return _pick(rng, list(range(fld.n)), n_sources, exclude or set())


def scattered_sink_nodes(
    fld: SensorField, n_sinks: int, rng: random.Random, exclude: set[int] | None = None
) -> list[int]:
    """Fig-8 scheme: first sink at the top-right corner, rest scattered."""
    exclude = set(exclude or set())
    first = corner_sink_node(fld, rng, exclude=exclude)
    sinks = [first]
    exclude.add(first)
    if n_sinks > 1:
        sinks.extend(_pick(rng, list(range(fld.n)), n_sinks - 1, exclude))
    return sinks


def event_radius_sources(
    fld: SensorField,
    n_sources: int,
    radius: float,
    rng: random.Random,
    exclude: set[int] | None = None,
) -> list[int]:
    """Event-radius model (Krishnamachari et al.): the nodes closest to a
    random event location, all within ``radius`` when possible."""
    exclude = exclude or set()
    ex, ey = rng.uniform(0, fld.field_size), rng.uniform(0, fld.field_size)
    ranked = sorted(
        (i for i in range(fld.n) if i not in exclude),
        key=lambda i: (fld.positions[i][0] - ex) ** 2 + (fld.positions[i][1] - ey) ** 2,
    )
    chosen = [
        i
        for i in ranked
        if math.hypot(fld.positions[i][0] - ex, fld.positions[i][1] - ey) <= radius
    ][:n_sources]
    for i in ranked:
        if len(chosen) >= n_sources:
            break
        if i not in chosen:
            chosen.append(i)
    return chosen

"""Bounded memoization of generated sensor fields (world-build fast path).

Paired sweeps run both schemes of a cell with the *same* seed, so the
identical field — including the redraw-until-connected loop — used to
be regenerated once per scheme (and once more by any tree/baseline code
rebuilding the same geometry).  This module caches
:class:`~repro.net.topology.SensorField` objects in a small per-process
LRU keyed by everything that determines them:
``(seed, n, field_size, range_m, require_connected, max_attempts)``.

A cached field holds its positions and the adjacency list that the
connectivity check built (one list of neighbor ids per node, per
radius asked for).  It holds a networkx graph only once tree code has
asked for one (the omniscient baseline, ``repro inspect``), so a cache
full of packet-level fields stays small.

Correctness invariants:

* **RNG streams are untouched.**  Field generation draws only from the
  dedicated ``"topology"`` substream, which nothing else in a run reads.
  A cache hit skips that substream entirely; a miss recreates it from
  ``derive_seed(seed, "topology")`` — bit-identical to what
  ``RngRegistry(seed).stream("topology")`` would have produced.  Either
  way, every other substream (placement, MAC jitter, failures...) is
  unaffected, so cached and fresh runs produce identical
  :class:`~repro.experiments.metrics.RunMetrics`.
* **Cached fields are shared read-only.**  Nothing in the stack mutates
  ``SensorField.positions``, the adjacency lists or the connectivity
  graph (tree builders copy into their own graphs), so handing the same
  object to several runs in one process is safe — and sharing the
  lazily built graph is itself a win for the tree/baseline paths.  A
  finished run's :meth:`~repro.experiments.runner.World.close` leaves
  the field alone for the same reason.

The cache is per-process: parallel sweep workers each warm their own,
and a cell's paired runs often land on different workers.  That miss is
cheap: building one of the benchmark sweep's fields (50-125 nodes on the
200 m field) took a median 1.9 ms on a 2-core Xeon host, against 320 ms
for one of its runs.  The cache holds :data:`DEFAULT_FIELD_CACHE_SIZE`
fields; ``FieldCache(maxsize=0)`` caches nothing.  Runs always read
:func:`default_field_cache`; a caller that needs a fresh build clears it.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from ..sim.rng import derive_seed
from .topology import SensorField, generate_field

__all__ = [
    "DEFAULT_FIELD_CACHE_SIZE",
    "FieldCache",
    "default_field_cache",
    "cached_field",
    "field_cache_key",
]

#: default LRU capacity (a full 7-density x 10-trial figure sweep holds 70
#: distinct fields; per-process workers see far fewer at a time)
DEFAULT_FIELD_CACHE_SIZE = 32

#: name of the RNG substream consumed by field generation (must match
#: what build_world uses)
TOPOLOGY_STREAM = "topology"

_CacheKey = Tuple[int, int, float, float, bool, int]


def field_cache_key(
    n: int,
    seed: int,
    field_size: float,
    range_m: float,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> _CacheKey:
    """The full determinant of a generated field."""
    return (int(seed), int(n), float(field_size), float(range_m), bool(require_connected), int(max_attempts))


class FieldCache:
    """A bounded LRU of generated :class:`SensorField` objects.

    Thread-safe (a single lock around the OrderedDict); the expensive
    part — generating a field on a miss — intentionally runs outside the
    lock, so two threads racing on the same key may both build it (the
    result is identical; one wins the insert).
    """

    def __init__(self, maxsize: int = DEFAULT_FIELD_CACHE_SIZE) -> None:
        if maxsize < 0:
            raise ValueError("cache maxsize must be >= 0")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[_CacheKey, SensorField]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _CacheKey) -> Optional[SensorField]:
        """Look up a field, counting the hit/miss and refreshing recency."""
        with self._lock:
            fld = self._entries.get(key)
            if fld is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return fld

    def put(self, key: _CacheKey, fld: SensorField) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = fld
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get_or_build(
        self, key: _CacheKey, builder: Callable[[], SensorField]
    ) -> Tuple[SensorField, bool]:
        """Return ``(field, was_cache_hit)``, building and caching on miss."""
        if self.maxsize == 0:
            self.misses += 1
            return builder(), False
        fld = self.get(key)
        if fld is not None:
            return fld, True
        fld = builder()
        self.put(key, fld)
        return fld, False

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Snapshot for benchmarks and manifests."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FieldCache {len(self._entries)}/{self.maxsize} hits={self.hits} misses={self.misses}>"


_default_cache: Optional[FieldCache] = None


def default_field_cache() -> FieldCache:
    """The per-process cache used by :func:`cached_field` by default."""
    global _default_cache
    if _default_cache is None:
        _default_cache = FieldCache()
    return _default_cache


def cached_field(
    n: int,
    seed: int,
    field_size: float = 200.0,
    range_m: float = 40.0,
    require_connected: bool = True,
    max_attempts: int = 200,
    cache: Optional[FieldCache] = None,
) -> Tuple[SensorField, bool]:
    """Memoized :func:`~repro.net.topology.generate_field`.

    Takes the run *seed* instead of an RNG object: the topology substream
    is derived here exactly as ``RngRegistry(seed).stream("topology")``
    would, which is what makes a miss bit-identical to the uncached path.
    Returns ``(field, was_cache_hit)``.
    """
    if cache is None:
        cache = default_field_cache()
    key = field_cache_key(n, seed, field_size, range_m, require_connected, max_attempts)

    def build() -> SensorField:
        rng = random.Random(derive_seed(seed, TOPOLOGY_STREAM))
        return generate_field(
            n,
            rng,
            field_size=field_size,
            range_m=range_m,
            require_connected=require_connected,
            max_attempts=max_attempts,
        )

    return cache.get_or_build(key, build)

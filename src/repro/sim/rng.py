"""Deterministic random-number streams.

Reproducibility is a first-class requirement: a simulation run is fully
determined by ``(topology seed, run seed)``.  To keep components
statistically independent *and* insensitive to the order in which they are
constructed, each consumer asks the registry for a named substream; the
substream seed is derived by hashing ``(root_seed, name)`` with a stable
hash (``hashlib.sha256``, not Python's randomized ``hash``).
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from a root seed and a stream name.

    Stable across processes and Python versions (unlike ``hash``).
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory for named, independent ``random.Random`` substreams.

    >>> reg = RngRegistry(42)
    >>> a = reg.stream("mac.node3")
    >>> b = reg.stream("mac.node4")
    >>> a is reg.stream("mac.node3")   # streams are memoised by name
    True
    >>> a is b
    False
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) substream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.root_seed} streams={len(self._streams)}>"

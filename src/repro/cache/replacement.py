"""Replacement policies for set-associative caches.

Each policy instance manages per-set victim selection state.  The MAB
consistency argument of the paper leans on LRU behaviour (both the
cache and the MAB use LRU), so :class:`LRUPolicy` is the default
everywhere; the others support the replacement-policy ablation.
"""

from __future__ import annotations

import random
from typing import List


class ReplacementPolicy:
    """Interface: per-set victim selection with usage feedback."""

    name = "abstract"

    def __init__(self, sets: int, ways: int):
        self.sets = sets
        self.ways = ways

    def touch(self, set_index: int, way: int) -> None:
        """Record a use of ``way`` in ``set_index``."""
        raise NotImplementedError

    def victim(self, set_index: int) -> int:
        """Choose the way to evict from ``set_index``."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used (paper reference [20])."""

    name = "lru"

    def __init__(self, sets: int, ways: int):
        super().__init__(sets, ways)
        # order[s] lists ways from LRU (front) to MRU (back).  Copying
        # one list is ~3x faster than a ``range`` per set, and the
        # replay engine builds a fresh shadow cache for every sweep.
        order = list(range(ways))
        self._order: List[List[int]] = [order.copy() for _ in range(sets)]

    def touch(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def victim(self, set_index: int) -> int:
        return self._order[set_index][0]

    def lru_to_mru(self, set_index: int) -> List[int]:
        """Expose the recency stack (used by tests)."""
        return list(self._order[set_index])


class FIFOPolicy(ReplacementPolicy):
    """Round-robin / first-in-first-out."""

    name = "fifo"

    def __init__(self, sets: int, ways: int):
        super().__init__(sets, ways)
        self._next = [0] * sets

    def touch(self, set_index: int, way: int) -> None:
        pass  # FIFO ignores uses

    def victim(self, set_index: int) -> int:
        way = self._next[set_index]
        self._next[set_index] = (way + 1) % self.ways
        return way


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministic via seed)."""

    name = "random"

    def __init__(self, sets: int, ways: int, seed: int = 0x5EED):
        super().__init__(sets, ways)
        self._rng = random.Random(seed)

    def touch(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        return self._rng.randrange(self.ways)


class PseudoLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (the common hardware approximation).

    For 2 ways this degenerates to true LRU; for wider caches it keeps
    one tree bit per internal node.
    """

    name = "plru"

    def __init__(self, sets: int, ways: int):
        super().__init__(sets, ways)
        if ways & (ways - 1):
            raise ValueError("pseudo-LRU requires a power-of-two way count")
        self._levels = max(ways.bit_length() - 1, 0)
        self._tree = [[0] * max(ways - 1, 1) for _ in range(sets)]

    def touch(self, set_index: int, way: int) -> None:
        tree = self._tree[set_index]
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            # Point the tree bit away from the touched way.
            tree[node] = 1 - bit
            node = 2 * node + 1 + bit

    def victim(self, set_index: int) -> int:
        tree = self._tree[set_index]
        node = 0
        way = 0
        for _ in range(self._levels):
            bit = tree[node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way


_POLICIES = {
    cls.name: cls
    for cls in (LRUPolicy, FIFOPolicy, RandomPolicy, PseudoLRUPolicy)
}


def make_policy(name: str, sets: int, ways: int) -> ReplacementPolicy:
    """Instantiate a policy by name (``lru``/``fifo``/``random``/``plru``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    return cls(sets, ways)

"""Behavioural set-associative cache model.

Tracks tags/valid per line and replacement state; does not store
data bytes (the ISS provides functional memory, the cache studies only
need hit/way/eviction behaviour) and models no write-back traffic
(Equation (1) prices tag and way accesses only, and every controller
charges a store's single way itself).  Eviction listeners let the
way-memoization machinery implement its ``evict_hook`` consistency
mode.

The internal state is *flat*: per-set lists of tag integers (``-1``
means invalid), with the address-split geometry precomputed once in
``__init__``.  The allocation-free
:meth:`SetAssociativeCache.access_fast` is the kernel-level form of
the scan.  :meth:`SetAssociativeCache.access_fast_batch` runs a
whole pre-split stream — numpy tag and set columns — through the
cache and returns the packed results as an int64 array: the replay
engine's shared sweep, from which every controller but the filter
cache — way memoization included — derives its counters (the filter
cache runs its own L1 stream through it).  For a 2-way LRU cache
with no eviction listener, the geometry of both FR-V caches, the
sweep is vectorized; every other cache walks the accesses one by one.
The original object API (:meth:`access` returning
:class:`AccessResult`) is a thin wrapper kept for the reference
controllers and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, List, Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.replacement import LRUPolicy, ReplacementPolicy


@dataclass
class CacheLineState:
    """Tag state of one cache line (a snapshot; not live storage)."""

    valid: bool = False
    tag: int = 0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    Attributes
    ----------
    hit:
        Whether the access hit.
    way:
        The way holding the line after the access (fill way on miss).
    evicted_tag:
        Tag of the line evicted by a miss fill, or None.
    """

    hit: bool
    way: int
    evicted_tag: Optional[int] = None


#: Signature of eviction listeners: (tag, set_index) of the line removed.
EvictionListener = Callable[[int, int], None]

# Bit layout of the packed int returned by ``access_fast``:
#   bit 0       hit
#   bits 1..8   way
#   bit 9       a valid line was evicted
#   bits 10..   evicted tag
_F_HIT = 1
_F_WAY_SHIFT = 1
_F_WAY_FIELD = 0xFF << _F_WAY_SHIFT
_F_EVICTED = 1 << 9
_F_TAG_SHIFT = 10


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of an integer array.

    NumPy's stable sort of a 16-bit integer array is a radix sort,
    linear in the length.  Values spanning fewer than 2**16 therefore
    sort as ``values - min`` cast to ``uint16``, which orders them (and
    breaks ties) exactly as the values themselves.
    """
    if len(values) > 1:
        low = values.min()
        if int(values.max()) - int(low) < 1 << 16:
            return np.argsort((values - low).astype(np.uint16), kind="stable")
    return np.argsort(values, kind="stable")


class SetAssociativeCache:
    """A set-associative cache model: every access, load or store,
    fills its line on a miss."""

    def __init__(
        self,
        config: CacheConfig,
        policy: Optional[ReplacementPolicy] = None,
    ):
        self.config = config
        self.policy = policy or LRUPolicy(config.sets, config.ways)
        if (self.policy.sets, self.policy.ways) != (config.sets, config.ways):
            raise ValueError("replacement policy geometry mismatch")
        # Geometry, precomputed once (CacheConfig derives them lazily).
        self.offset_bits = config.offset_bits
        self.index_bits = config.index_bits
        self.tag_shift = self.offset_bits + self.index_bits
        self.set_mask = config.sets - 1
        self.ways = config.ways
        # Flat line state: tag per (set, way), -1 == invalid.
        empty = [-1] * config.ways
        self._tags: List[List[int]] = [
            empty.copy() for _ in range(config.sets)
        ]
        # Direct handle on LRU recency stacks for inline touch/victim;
        # None for non-LRU policies (which go through method calls).
        self._lru: Optional[List[List[int]]] = (
            self.policy._order if isinstance(self.policy, LRUPolicy) else None
        )
        self._eviction_listeners: List[EvictionListener] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def add_eviction_listener(self, listener: EvictionListener) -> None:
        """Call ``listener(tag, set_index)`` whenever a line is evicted."""
        self._eviction_listeners.append(listener)

    def probe(self, addr: int) -> Optional[int]:
        """Return the way holding ``addr`` without touching any state."""
        addr &= 0xFFFFFFFF
        tag = addr >> self.tag_shift
        tags = self._tags[(addr >> self.offset_bits) & self.set_mask]
        for way in range(self.ways):
            if tags[way] == tag:
                return way
        return None

    def line_state(self, set_index: int, way: int) -> CacheLineState:
        """Snapshot of one line's tag state."""
        tag = self._tags[set_index][way]
        if tag < 0:
            return CacheLineState(valid=False, tag=0)
        return CacheLineState(valid=True, tag=tag)

    # ------------------------------------------------------------------
    # fast path
    # ------------------------------------------------------------------

    def access_fast(self, tag: int, set_index: int) -> int:
        """Access on a pre-split address, packed-int result.

        Returns ``hit | way << 1`` plus eviction info in the upper bits
        (see the ``_F_*`` layout above).  State changes are identical
        to :meth:`access`.
        """
        tags = self._tags[set_index]
        lru = self._lru
        for way in range(self.ways):
            if tags[way] == tag:
                self.hits += 1
                if lru is not None:
                    order = lru[set_index]
                    if order[-1] != way:
                        order.remove(way)
                        order.append(way)
                else:
                    self.policy.touch(set_index, way)
                return _F_HIT | (way << _F_WAY_SHIFT)

        # Miss: choose a victim, evict, fill.
        self.misses += 1
        if lru is not None:
            way = lru[set_index][0]
        else:
            way = self.policy.victim(set_index)
        result = way << _F_WAY_SHIFT
        evicted_tag = tags[way]
        if evicted_tag >= 0:
            self.evictions += 1
            result |= _F_EVICTED | (evicted_tag << _F_TAG_SHIFT)
            for listener in self._eviction_listeners:
                listener(evicted_tag, set_index)
        tags[way] = tag
        if lru is not None:
            order = lru[set_index]
            if order[-1] != way:
                order.remove(way)
                order.append(way)
        else:
            self.policy.touch(set_index, way)
        return result

    def access_fast_batch(
        self, tags: np.ndarray, sets: np.ndarray
    ) -> np.ndarray:
        """Run a whole pre-split stream through the cache.

        ``tags`` and ``sets`` are equal-length integer arrays of
        pre-split address components.  Returns the packed result of
        every access (the ``_F_*`` layout) as an int64 array, in order,
        with state changes identical to calling :meth:`access_fast`
        access by access.

        This is the shared sweep behind every fast path whose cache
        access stream does not depend on auxiliary state (the
        original, two-phase, way-prediction, Panwar, set-buffer,
        MA-links, way-memo and line-buffer controllers touch the cache
        once per access no matter what their side structures hold, so
        the whole replay collapses into this one call).  A listener-free
        2-way LRU cache — both FR-V caches — takes the vectorized
        :meth:`_batch_lru2`; other geometries and policies, and caches
        with eviction listeners, walk the accesses one by one.
        """
        if (self._lru is not None and self.ways == 2
                and not self._eviction_listeners):
            return self._batch_lru2(tags, sets)
        return np.array(
            self._batch_scalar(tags.tolist(), sets.tolist()), dtype=np.int64
        )

    def _batch_lru2(self, tags: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """:meth:`access_fast_batch` of a listener-free 2-way LRU cache.

        An access to the line of the access just before it (same tag
        and set) hits in that access's way and changes no state, so
        only the first access of each such run is swept
        (:meth:`_sweep_lru2`); every later access of the run is a hit
        in the way the first one resolved.  Gathering the runs' first
        accesses and spreading their results back costs about a third
        of what sweeping an access does, so a stream where fewer than a
        third of the accesses repeat the line before them is swept whole
        (over the seven programs, 8% of the D-side accesses and 73% of
        the I-side fetches repeat).
        """
        n = len(tags)
        if not n:
            return np.zeros(0, dtype=np.int64)
        repeat = np.empty(n, dtype=bool)
        repeat[0] = False
        np.equal(tags[1:], tags[:-1], out=repeat[1:])
        repeat[1:] &= sets[1:] == sets[:-1]
        if 3 * np.count_nonzero(repeat) < n:
            return self._sweep_lru2(tags, sets)
        first = np.flatnonzero(~repeat)
        swept = self._sweep_lru2(tags[first], sets[first])
        self.hits += n - len(first)
        packed = np.repeat(
            (swept & _F_WAY_FIELD) | _F_HIT, np.diff(first, append=n)
        )
        packed[first] = swept
        return packed

    def _sweep_lru2(self, tags: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """The sweep behind :meth:`_batch_lru2`, exact on any stream.

        A 2-way LRU set holds the last two distinct lines referenced in
        it, so the sweep is a function of each set's chain of accesses
        collapsed into runs of one tag.  Warm sets enter the chain as
        pseudo accesses (the LRU line, then the MRU line), and then,
        per set:

        * every access after a run's head hits;
        * a run head hits iff its tag is the tag two runs back;
        * a head that misses with two runs behind it evicts the tag two
          runs back;
        * the way flips on every run, starting from the way of the
          chain's first line (``order[0]`` when the set is empty).
        """
        n = len(tags)
        ctags, clru = self._tags, self._lru
        touched = np.flatnonzero(np.bincount(sets, minlength=len(ctags)))
        touched_list = touched.tolist()
        rows = np.arange(len(touched))
        state = np.fromiter(
            chain.from_iterable(clru[s] + ctags[s] for s in touched_list),
            dtype=np.int64, count=4 * len(touched_list),
        ).reshape(-1, 4)
        order = state[:, 0:2]
        line_tags = state[:, 2:4]
        lru_tag = line_tags[rows, order[:, 0]]
        mru_tag = line_tags[rows, order[:, 1]]
        has_lru = lru_tag >= 0
        has_mru = mru_tag >= 0
        pseudo_sets = np.concatenate((touched[has_lru], touched[has_mru]))
        npseudo = len(pseudo_sets)
        all_sets = np.concatenate((pseudo_sets, sets))
        all_tags = np.concatenate(
            (lru_tag[has_lru], mru_tag[has_mru], tags)
        )

        # Stable sort by set: each set's chain in stream order, pseudo
        # accesses first.
        by_set = stable_argsort(all_sets)
        chain_sets = all_sets[by_set]
        chain_tags = all_tags[by_set]
        m = len(by_set)
        opens = np.empty(m, dtype=bool)
        opens[0] = True
        np.not_equal(chain_sets[1:], chain_sets[:-1], out=opens[1:])
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(chain_tags[1:], chain_tags[:-1], out=head[1:])
        head |= opens
        heads = np.flatnonzero(head)

        # Per run: its tag, its position in its set's chain, its way.
        run_tags = chain_tags[heads]
        runs = len(heads)
        first = opens[heads]
        chain_starts = np.flatnonzero(first)
        chain_of_run = np.cumsum(first) - 1
        depth = np.arange(runs) - chain_starts[chain_of_run]
        start = np.where(has_mru & ~has_lru, order[:, 1], order[:, 0])
        run_way = start[chain_of_run] ^ (depth & 1)
        deep = depth >= 2
        run_hit = np.zeros(runs, dtype=bool)
        np.equal(run_tags[2:], run_tags[:-2], out=run_hit[2:])
        run_hit &= deep
        evict = np.flatnonzero(deep & ~run_hit)

        run_packed = run_way << _F_WAY_SHIFT
        head_packed = run_packed | run_hit
        head_packed[evict] |= (
            _F_EVICTED | (run_tags[evict - 2] << _F_TAG_SHIFT)
        )
        chain_packed = (run_packed | _F_HIT)[np.cumsum(head) - 1]
        chain_packed[heads] = head_packed
        packed = np.empty(m, dtype=np.int64)
        packed[by_set] = chain_packed

        misses = runs - int(np.count_nonzero(run_hit)) - npseudo
        self.hits += n - misses
        self.misses += misses
        self.evictions += len(evict)

        # Final state: the chain's last run is the MRU line, the run
        # before it (if any) the LRU line in the other way.
        last = np.append(chain_starts[1:], runs) - 1
        mru_way = run_way[last]
        line_tags[rows, mru_way] = run_tags[last]
        two = np.flatnonzero(depth[last] >= 1)
        line_tags[two, 1 - mru_way[two]] = run_tags[last[two] - 1]
        for s, tag_row, lru_row in zip(
            touched_list, line_tags.tolist(),
            np.stack((1 - mru_way, mru_way), axis=1).tolist(),
        ):
            ctags[s] = tag_row
            clru[s] = lru_row
        return packed[npseudo:]

    def _batch_scalar(self, tags: List[int], sets: List[int]) -> List[int]:
        """:meth:`access_fast_batch` as one tight per-access loop."""
        out: List[int] = []
        append = out.append
        ctags = self._tags
        lru = self._lru
        nways = self.ways
        way_range = range(nways)
        two_way = nways == 2
        policy_touch = self.policy.touch
        policy_victim = self.policy.victim
        listeners = self._eviction_listeners
        hits = 0
        misses = 0
        evictions = 0

        for tag, set_index in zip(tags, sets):
            row = ctags[set_index]
            if two_way:
                if row[0] == tag:
                    way = 0
                elif row[1] == tag:
                    way = 1
                else:
                    way = -1
            else:
                way = -1
                for w in way_range:
                    if row[w] == tag:
                        way = w
                        break
            if way >= 0:
                hits += 1
                if lru is not None:
                    order = lru[set_index]
                    if order[-1] != way:
                        order.remove(way)
                        order.append(way)
                else:
                    policy_touch(set_index, way)
                append(_F_HIT | (way << _F_WAY_SHIFT))
                continue

            # Miss: choose a victim, evict, fill.
            misses += 1
            if lru is not None:
                order = lru[set_index]
                way = order[0]
            else:
                way = policy_victim(set_index)
            result = way << _F_WAY_SHIFT
            evicted_tag = row[way]
            if evicted_tag >= 0:
                evictions += 1
                result |= _F_EVICTED | (evicted_tag << _F_TAG_SHIFT)
                for listener in listeners:
                    listener(evicted_tag, set_index)
            row[way] = tag
            if lru is not None:
                if order[-1] != way:
                    order.remove(way)
                    order.append(way)
            else:
                policy_touch(set_index, way)
            append(result)

        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        return out

    # ------------------------------------------------------------------
    # object API (wrapper over the fast path)
    # ------------------------------------------------------------------

    def access(self, addr: int) -> AccessResult:
        """Perform a load or store access, filling on a miss."""
        addr &= 0xFFFFFFFF
        packed = self.access_fast(
            addr >> self.tag_shift,
            (addr >> self.offset_bits) & self.set_mask,
        )
        evicted_tag = None
        if packed & _F_EVICTED:
            evicted_tag = packed >> _F_TAG_SHIFT
        return AccessResult(
            hit=bool(packed & _F_HIT),
            way=(packed >> _F_WAY_SHIFT) & 0xFF,
            evicted_tag=evicted_tag,
        )

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        for set_index, line_tags in enumerate(self._tags):
            tags = [tag for tag in line_tags if tag >= 0]
            if len(tags) != len(set(tags)):
                raise AssertionError(
                    f"duplicate tag in set {set_index}: {tags}"
                )

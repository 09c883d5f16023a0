"""Behavioural set-associative cache model.

Tracks tags/valid/dirty per line and replacement state; does not store
data bytes (the ISS provides functional memory, the cache studies only
need hit/way/eviction behaviour).  Eviction listeners let the
way-memoization machinery implement its ``evict_hook`` consistency
mode.

The internal state is *flat*: per-set lists of tag integers (``-1``
means invalid) and dirty flags, with the address-split geometry
precomputed once in ``__init__``.  The allocation-free fast-path API
(:meth:`SetAssociativeCache.access_fast`,
:meth:`SetAssociativeCache.hit_confirm`) is the kernel-level form of
the scans, and :meth:`SetAssociativeCache.access_fast_batch` runs a
whole pre-split stream through it in one loop: the replay engine's
shared sweep, from which every batchable controller — way
memoization included — derives its counters.  The original object
API (:meth:`access` returning :class:`AccessResult`) is a thin
wrapper kept for the reference controllers and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cache.config import CacheConfig
from repro.cache.replacement import LRUPolicy, ReplacementPolicy


@dataclass
class CacheLineState:
    """Tag state of one cache line (a snapshot; not live storage)."""

    valid: bool = False
    dirty: bool = False
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
    writeback:
        True when the evicted line was dirty (write-back traffic).
    """

    hit: bool
    way: int
    evicted_tag: Optional[int] = None
    writeback: bool = False


#: Signature of eviction listeners: (tag, set_index) of the line removed.
EvictionListener = Callable[[int, int], None]

# Bit layout of the packed int returned by ``access_fast``:
#   bit 0       hit
#   bits 1..8   way
#   bit 9       a valid line was evicted
#   bit 10      the evicted line was dirty (writeback)
#   bits 11..   evicted tag
_F_HIT = 1
_F_WAY_SHIFT = 1
_F_EVICTED = 1 << 9
_F_WRITEBACK = 1 << 10
_F_TAG_SHIFT = 11


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache model."""

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
        self._tags: List[List[int]] = [
            [-1] * config.ways for _ in range(config.sets)
        ]
        self._dirty: List[List[bool]] = [
            [False] * config.ways for _ in range(config.sets)
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
        self.writebacks = 0

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
            return CacheLineState(valid=False, dirty=False, tag=0)
        return CacheLineState(
            valid=True, dirty=self._dirty[set_index][way], tag=tag
        )

    def resident_tags(self, set_index: int) -> List[int]:
        """Valid tags currently stored in ``set_index`` (tests/invariants)."""
        return [tag for tag in self._tags[set_index] if tag >= 0]

    # ------------------------------------------------------------------
    # fast path
    # ------------------------------------------------------------------

    def access_fast(self, tag: int, set_index: int, write: bool) -> int:
        """Load/store access on a pre-split address, packed-int result.

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
                if write:
                    self._dirty[set_index][way] = True
                return _F_HIT | (way << _F_WAY_SHIFT)

        # Miss: choose a victim, evict, fill.
        self.misses += 1
        if lru is not None:
            way = lru[set_index][0]
        else:
            way = self.policy.victim(set_index)
        result = way << _F_WAY_SHIFT
        evicted_tag = tags[way]
        dirty = self._dirty[set_index]
        if evicted_tag >= 0:
            self.evictions += 1
            result |= _F_EVICTED | (evicted_tag << _F_TAG_SHIFT)
            if dirty[way]:
                self.writebacks += 1
                result |= _F_WRITEBACK
            for listener in self._eviction_listeners:
                listener(evicted_tag, set_index)
        tags[way] = tag
        dirty[way] = write
        if lru is not None:
            order = lru[set_index]
            if order[-1] != way:
                order.remove(way)
                order.append(way)
        else:
            self.policy.touch(set_index, way)
        return result

    def access_fast_batch(
        self,
        tags: List[int],
        sets: List[int],
        writes: Optional[List[bool]] = None,
    ) -> List[int]:
        """Run a sequence of :meth:`access_fast` calls as one tight loop.

        ``tags`` and ``sets`` are equal-length lists of pre-split
        address components; ``writes`` marks stores (all loads when
        None).  Returns the packed-int result of every access, in
        order, with state changes identical to calling
        :meth:`access_fast` access by access.

        This is the shared kernel behind every fast path whose cache
        access stream does not depend on auxiliary state (the
        original, two-phase, way-prediction, Panwar, set-buffer,
        MA-links and way-memo controllers touch the cache once per
        access no matter what their side structures hold, so the whole
        replay collapses into this one loop).  The loop keeps the state
        lists in locals and special-cases the ubiquitous 2-way + LRU
        geometry.
        """
        if writes is None:
            writes = [False] * len(tags)
        out: List[int] = []
        append = out.append
        ctags = self._tags
        cdirty = self._dirty
        lru = self._lru
        nways = self.ways
        way_range = range(nways)
        two_way = nways == 2
        lru2 = lru is not None and two_way
        policy_touch = self.policy.touch
        policy_victim = self.policy.victim
        listeners = self._eviction_listeners
        hits = 0
        misses = 0
        evictions = 0
        writebacks = 0

        for tag, set_index, write in zip(tags, sets, writes):
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
                if lru2:
                    order = lru[set_index]
                    if order[1] != way:
                        order[0], order[1] = order[1], order[0]
                elif lru is not None:
                    order = lru[set_index]
                    if order[-1] != way:
                        order.remove(way)
                        order.append(way)
                else:
                    policy_touch(set_index, way)
                if write:
                    cdirty[set_index][way] = True
                append(_F_HIT | (way << _F_WAY_SHIFT))
                continue

            # Miss: choose a victim, evict, fill.
            misses += 1
            if lru is not None:
                order = lru[set_index]
                way = order[0]
            else:
                way = policy_victim(set_index)
                order = None
            result = way << _F_WAY_SHIFT
            evicted_tag = row[way]
            dirty_row = cdirty[set_index]
            if evicted_tag >= 0:
                evictions += 1
                result |= _F_EVICTED | (evicted_tag << _F_TAG_SHIFT)
                if dirty_row[way]:
                    writebacks += 1
                    result |= _F_WRITEBACK
                for listener in listeners:
                    listener(evicted_tag, set_index)
            row[way] = tag
            dirty_row[way] = write
            if lru2:
                order[0], order[1] = order[1], order[0]
            elif lru is not None:
                if order[-1] != way:
                    order.remove(way)
                    order.append(way)
            else:
                policy_touch(set_index, way)
            append(result)

        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        self.writebacks += writebacks
        return out

    def hit_confirm(
        self, tag: int, set_index: int, way: int, write: bool
    ) -> bool:
        """Verify a memoized ``way`` and complete the hit in one scan.

        Equivalent to ``probe(addr) == way`` followed by
        ``access(addr)`` on the guaranteed-hit path, but with a single
        tag comparison: a tag can reside in at most one way, so the
        memoized way holds it iff any way does.  On success the hit is
        recorded (hit counter, recency touch, dirty bit); on failure
        (stale memoization) no state changes and the caller falls back
        to a full access.
        """
        if self._tags[set_index][way] != tag:
            return False
        self.hits += 1
        lru = self._lru
        if lru is not None:
            order = lru[set_index]
            if order[-1] != way:
                order.remove(way)
                order.append(way)
        else:
            self.policy.touch(set_index, way)
        if write:
            self._dirty[set_index][way] = True
        return True

    # ------------------------------------------------------------------
    # object API (wrapper over the fast path)
    # ------------------------------------------------------------------

    def access(self, addr: int, write: bool = False) -> AccessResult:
        """Perform a load/store access, filling on a miss."""
        addr &= 0xFFFFFFFF
        packed = self.access_fast(
            addr >> self.tag_shift,
            (addr >> self.offset_bits) & self.set_mask,
            write,
        )
        evicted_tag = None
        if packed & _F_EVICTED:
            evicted_tag = packed >> _F_TAG_SHIFT
        return AccessResult(
            hit=bool(packed & _F_HIT),
            way=(packed >> _F_WAY_SHIFT) & 0xFF,
            evicted_tag=evicted_tag,
            writeback=bool(packed & _F_WRITEBACK),
        )

    def invalidate_all(self) -> None:
        """Flush the cache (notifies eviction listeners)."""
        for set_index, tags in enumerate(self._tags):
            dirty = self._dirty[set_index]
            for way, tag in enumerate(tags):
                if tag >= 0:
                    for listener in self._eviction_listeners:
                        listener(tag, set_index)
                tags[way] = -1
                dirty[way] = False

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        for set_index, line_tags in enumerate(self._tags):
            tags = [tag for tag in line_tags if tag >= 0]
            if len(tags) != len(set(tags)):
                raise AssertionError(
                    f"duplicate tag in set {set_index}: {tags}"
                )

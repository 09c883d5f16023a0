"""The Memory Address Buffer (paper Section 3.3, Figure 3).

The MAB is a cross-product cache over addresses: ``Nt`` tag-side
entries, each holding an 18-bit base tag plus the 2-bit ``cflag``
(narrow-adder carry, displacement sign), and ``Ns`` set-index-side
entries of 9 bits each.  A ``vflag[i][j]`` bit validates the pair
(tag entry *i*, index entry *j*), and each valid pair memoizes the
cache way that holds the line — so ``Nt + Ns`` stored values can cover
``Nt * Ns`` distinct addresses.  Both sides are managed LRU.

Update rules on a MAB miss (the four cases of Section 3.3):

1. tag hit *i*, index hit *j* (pair was merely invalid):
   set ``vflag[i][j]``;
2. tag miss, index hit *j*: evict LRU tag entry *i*, clear row
   ``vflag[i][*]``, set ``vflag[i][j]``;
3. tag hit *i*, index miss: evict LRU index entry *j*, clear column
   ``vflag[*][j]``, set ``vflag[i][j]``;
4. both miss: evict both LRU entries, clear the row and the column,
   set ``vflag[i][j]``.

Consistency with the cache ("a valid MAB pair always resides in the
cache") is maintained by two mechanisms selectable via
``MABConfig.consistency``:

* ``"paper"`` — only the paper's rules: the row/column clears above
  plus clearing the column of any large-displacement (bypassing)
  access.  The paper argues this suffices while the number of tag
  entries does not exceed the cache associativity.
* ``"evict_hook"`` — additionally invalidate any pair matching a line
  the cache evicts (a conservative guarantee).  The
  ``ablation_consistency`` experiment measures whether the paper mode
  ever yields a stale hit on our workloads.

Implementation notes: state is flat — tag-side keys are packed
``(base_tag << 2) | cflag`` ints mirrored in a dict for O(1) match,
``vflag`` rows are int bitmasks, and LRU order is kept as monotonically
increasing use-stamps (victim = argmin) so a touch never runs
``list.remove``.  :meth:`MAB.lookup` / :meth:`MAB.install` are the
object API the reference controllers replay through.

Fast engine: the MAB never changes what the cache does (a verified hit
touches the line like any hit, a stale hit or miss falls back to an
ordinary access), so the replay engine simulates no MAB at all.
:func:`way_memo_counters` derives the MAB's outcomes from the shared
cache sweep plus the LRU stack distances of the key and set streams —
one pass per stream for every (Nt, Ns) geometry of a group (see
:class:`_MabPairs` for the rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.cache import stable_argsort
from repro.cache.config import CacheConfig
from repro.cache.stats import AccessCounters
from repro.core.address import PartialSum, partial_add
from repro.replay.columns import repeat_pairs

CONSISTENCY_MODES = ("paper", "evict_hook")


@dataclass(frozen=True)
class MABConfig:
    """Size and behaviour of one MAB instance.

    ``tag_entries`` × ``index_entries`` is written "Nt x Ns" in the
    paper (e.g. the 2x8-entry MAB used for the D-cache).
    """

    tag_entries: int = 2
    index_entries: int = 8
    consistency: str = "paper"

    def __post_init__(self):
        if self.tag_entries < 1 or self.index_entries < 1:
            raise ValueError("MAB needs at least one entry per side")
        if self.consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_MODES}"
            )

    @property
    def label(self) -> str:
        return f"{self.tag_entries}x{self.index_entries}"


@dataclass(frozen=True)
class MABLookup:
    """Outcome of one MAB lookup.

    ``tag`` and ``set_index`` are the *cache* tag/set of the target
    address (tag reconstructed via the cflag rule); they are valid
    whenever ``bypass`` is False.
    """

    hit: bool
    bypass: bool
    way: Optional[int]
    tag: Optional[int]
    set_index: int
    tag_entry: Optional[int]
    index_entry: Optional[int]
    partial: PartialSum = field(repr=False, default=None)


def _key(partial: PartialSum) -> int:
    """The tag side's packed ``(base_tag << 2) | cflag`` match key."""
    return (partial.base_tag << 2) | partial.cflag


def _lru_slot(stamps: List[int]) -> int:
    """The least recently used slot (smallest use-stamp)."""
    return min(range(len(stamps)), key=stamps.__getitem__)


class MAB:
    """A Memory Address Buffer bound to a cache geometry."""

    def __init__(self, config: MABConfig, cache_config: CacheConfig):
        self.config = config
        self.cache_config = cache_config
        self.low_bits = cache_config.offset_bits + cache_config.index_bits
        self.tag_bits = 32 - self.low_bits
        self._tag_mask = (1 << self.tag_bits) - 1
        nt, ns = config.tag_entries, config.index_entries
        self._nt = nt
        self._ns = ns
        # Tag side: packed (base_tag << 2) | cflag per slot, -1 empty,
        # mirrored in a dict for O(1) match.
        self._keys: List[int] = [-1] * nt
        self._key_map: Dict[int, int] = {}
        # Index side: 9-bit set-index per slot, -1 empty.
        self._idx_vals: List[int] = [-1] * ns
        self._idx_map: Dict[int, int] = {}
        # Validity matrix as one bitmask per tag row (bit j = pair i,j).
        self._vmask: List[int] = [0] * nt
        self._ways: List[List[int]] = [[0] * ns for _ in range(nt)]
        # LRU as use-stamps: victim = slot with the smallest stamp.
        # Initial stamps replicate the cold order "slot 0 is LRU".
        self._tag_stamp: List[int] = list(range(nt))
        self._idx_stamp: List[int] = list(range(ns))
        self._stamp = nt + ns
        # Statistics.
        self.lookups = 0
        self.hits = 0
        self.bypasses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # lookup / install
    # ------------------------------------------------------------------

    def lookup(self, base: int, disp: int) -> MABLookup:
        """Probe the MAB with address-generation inputs.

        A hit touches both sides' LRU state (the paper updates MAB
        entries with an LRU policy on every use).
        """
        self.lookups += 1
        partial = partial_add(base, disp, self.low_bits)
        cache_config = self.cache_config
        set_index = partial.set_index(
            cache_config.offset_bits, cache_config.index_bits
        )
        if not partial.usable:
            self.bypasses += 1
            return MABLookup(
                hit=False, bypass=True, way=None, tag=None,
                set_index=set_index, tag_entry=None, index_entry=None,
                partial=partial,
            )
        tag_entry = self._key_map.get(_key(partial))
        index_entry = self._idx_map.get(set_index)
        hit = (
            tag_entry is not None and index_entry is not None
            and bool(self._vmask[tag_entry] >> index_entry & 1)
        )
        way = None
        if hit:
            self.hits += 1
            self._touch(tag_entry, index_entry)
            way = self._ways[tag_entry][index_entry]
        return MABLookup(
            hit=hit, bypass=False, way=way,
            tag=partial.target_tag(self.tag_bits), set_index=set_index,
            tag_entry=tag_entry, index_entry=index_entry, partial=partial,
        )

    def install(self, lookup: MABLookup, way: int) -> None:
        """Memoize the resolved ``way`` for the missed address.

        Implements the four hit/miss cases of Section 3.3, including
        the row/column ``vflag`` clearing on entry replacement: a side
        that missed replaces its LRU entry.
        """
        if lookup.bypass:
            raise ValueError("cannot install a bypassed lookup")
        tag_entry = lookup.tag_entry
        if tag_entry is None:
            tag_entry = _lru_slot(self._tag_stamp)
            old = self._keys[tag_entry]
            if old >= 0:
                del self._key_map[old]
            key = _key(lookup.partial)
            self._keys[tag_entry] = key
            self._key_map[key] = tag_entry
            self._vmask[tag_entry] = 0
        index_entry = lookup.index_entry
        if index_entry is None:
            index_entry = _lru_slot(self._idx_stamp)
            old = self._idx_vals[index_entry]
            if old >= 0:
                del self._idx_map[old]
            self._idx_vals[index_entry] = lookup.set_index
            self._idx_map[lookup.set_index] = index_entry
            clear = ~(1 << index_entry)
            vmask = self._vmask
            for i in range(self._nt):
                vmask[i] &= clear
        self._vmask[tag_entry] |= 1 << index_entry
        self._ways[tag_entry][index_entry] = way
        self._touch(tag_entry, index_entry)

    def _touch(self, tag_entry: int, index_entry: int) -> None:
        stamp = self._stamp
        self._tag_stamp[tag_entry] = stamp
        self._idx_stamp[index_entry] = stamp + 1
        self._stamp = stamp + 2

    def on_bypass(self, set_index: int) -> None:
        """Apply the paper's large-displacement consistency rule.

        A bypassing access still reaches the cache and may replace a
        line in ``set_index``; since the MAB was not consulted, any
        memoized pair for that set could go stale.  The set-index of
        the sum is exact even for large displacements (it only needs
        the narrow adder), so the matching column is cleared.
        """
        j = self._idx_map.get(set_index, -1)
        if j >= 0:
            clear = ~(1 << j)
            vmask = self._vmask
            for i in range(self._nt):
                vmask[i] &= clear

    def invalidate_line(self, tag: int, set_index: int) -> None:
        """Drop every pair matching an evicted cache line.

        Only used in ``evict_hook`` consistency mode.  Matching is on
        the *reconstructed* cache tag, since several (base_tag, cflag)
        keys can denote the same line.
        """
        j = self._idx_map.get(set_index, -1)
        if j < 0:
            return
        bit = 1 << j
        tag_mask = self._tag_mask
        for i, key in enumerate(self._keys):
            if key < 0 or not self._vmask[i] & bit:
                continue
            base_tag = key >> 2
            carry, sign = key >> 1 & 1, key & 1
            final = (base_tag + carry - sign) & tag_mask
            if final == tag:
                self._vmask[i] &= ~bit
                self.invalidations += 1

    def flush(self) -> None:
        """Invalidate all pairs and reset to the cold state.

        Used e.g. on context switch.  Besides clearing every ``vflag``
        this also drops the stored tag/index entries and resets both
        sides' LRU order, so a flushed MAB behaves exactly like a
        freshly constructed one (the activity counters ``lookups`` /
        ``hits`` / ``bypasses`` / ``invalidations`` are measurement
        accumulators and deliberately survive the flush).
        """
        nt, ns = self._nt, self._ns
        self._keys = [-1] * nt
        self._key_map.clear()
        self._idx_vals = [-1] * ns
        self._idx_map.clear()
        self._vmask = [0] * nt
        self._tag_stamp = list(range(nt))
        self._idx_stamp = list(range(ns))
        self._stamp = nt + ns

    # ------------------------------------------------------------------
    # invariants / introspection
    # ------------------------------------------------------------------

    @property
    def addresses_covered(self) -> int:
        """Number of currently valid (tag, index) pairs."""
        return sum(mask.bit_count() for mask in self._vmask)

    def valid_pairs(self) -> List[Tuple[int, int, int]]:
        """Return valid pairs as (cache_tag, set_index, way) triples."""
        pairs = []
        mask = self._tag_mask
        for i, key in enumerate(self._keys):
            if key < 0:
                continue
            base_tag = key >> 2
            final = (base_tag + (key >> 1 & 1) - (key & 1)) & mask
            vrow = self._vmask[i]
            for j, index in enumerate(self._idx_vals):
                if index >= 0 and vrow >> j & 1:
                    pairs.append((final, index, self._ways[i][j]))
        return pairs

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests)."""
        if len(set(self._tag_stamp)) != self._nt:
            raise AssertionError("tag LRU order corrupted")
        if len(set(self._idx_stamp)) != self._ns:
            raise AssertionError("index LRU order corrupted")
        for i, key in enumerate(self._keys):
            if key < 0 and self._vmask[i]:
                raise AssertionError(f"vflag set on empty tag row {i}")
        col_mask = 0
        for row in self._vmask:
            col_mask |= row
        for j, index in enumerate(self._idx_vals):
            if index < 0 and col_mask >> j & 1:
                raise AssertionError(f"vflag set on empty index column {j}")
        live_keys = [k for k in self._keys if k >= 0]
        if len(live_keys) != len(set(live_keys)):
            raise AssertionError("duplicate tag-side keys")
        if sorted(self._key_map.items()) != sorted(
            (k, i) for i, k in enumerate(self._keys) if k >= 0
        ):
            raise AssertionError("tag-side key map out of sync")
        live_idx = [s for s in self._idx_vals if s >= 0]
        if len(live_idx) != len(set(live_idx)):
            raise AssertionError("duplicate index-side entries")
        if sorted(self._idx_map.items()) != sorted(
            (s, j) for j, s in enumerate(self._idx_vals) if s >= 0
        ):
            raise AssertionError("index-side map out of sync")


# ----------------------------------------------------------------------
# fast engine: the MAB derived from the shared cache sweep
# ----------------------------------------------------------------------

def way_memo_counters(
    point, cols, shared, skip: Optional[np.ndarray] = None,
    stores: Optional[np.ndarray] = None, stream: str = "",
) -> AccessCounters:
    """Counters of one way-memo design, derived from a shared sweep.

    The shared derivation behind every way-memo design's fast path:
    the design point ``point`` supplies the cache geometry and the
    MAB; ``skip`` marks accesses that never consult the MAB
    (intra-line fetches, line-buffer hits; each is charged one way
    read) and ``stores`` the accesses that write.  ``stream`` names the
    MAB's lookup stream when ``skip`` is not the same for every member
    of the group.  The members sharing a lookup stream share one
    :class:`_MabPairs`; the eviction check is computed only when an
    ``evict_hook`` member asks for it.
    """
    config = point.cache
    mab_config = point.mab
    # The shared sweep runs on its first read: read it before the
    # pairs below allocate their arrays, so its temporaries never
    # stack on theirs.
    hits = shared.hit_count
    group = [mab_config] + [
        member.mab for member in shared.members if member.mab is not None
    ]
    pairs = shared.memo(
        f"mab{stream}",
        lambda: _MabPairs(cols, shared, config, group, skip, stores, stream),
    )
    hit = pairs.resident(mab_config)
    if mab_config.consistency == "evict_hook":
        hit &= shared.memo(
            f"mab-kept{stream}", lambda: pairs.kept(cols, shared)
        )
    verified_mask = hit & pairs.same_way
    verified = int(np.count_nonzero(verified_mask))
    verified_stores = (
        0 if pairs.stored is None
        else int(np.count_nonzero(verified_mask & pairs.stored))
    )

    n = cols.n
    nways = config.ways
    lookups = pairs.lookups
    counters = AccessCounters()
    counters.accesses = n
    counters.mab_lookups = lookups
    counters.mab_hits = verified
    counters.mab_bypasses = pairs.bypasses
    counters.stale_hits = int(np.count_nonzero(hit)) - verified
    counters.cache_hits = hits
    counters.cache_misses = n - hits
    counters.tag_accesses = nways * (lookups - verified)
    # A full access reads every way for a load and the resolved one
    # for a store, plus the refill on a miss (skipped accesses always
    # hit).  A verified MAB hit, like a skipped access, reads one way.
    counters.way_accesses = (
        (n - lookups)
        + pairs.stores + (lookups - pairs.stores) * nways + (n - hits)
        - (verified - verified_stores) * (nways - 1)
    )
    counters.notes["mab_label"] = mab_config.label
    return counters


class _LruSide:
    """One LRU side of the MAB over the lookups, in value-sorted order.

    A stable sort by value lines up each value's lookups in stream
    order, so "no lookup of this value in (p, q] was at distance >=
    entries" is one comparison of a cumulative count at p and at q.
    """

    def __init__(self, values, distances, p, q):
        order = stable_argsort(values)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.distances = distances[order]
        self.lo = rank[p]
        self.hi = rank[q]

    def unbroken(self, entries: int) -> np.ndarray:
        broken = np.cumsum(self.distances >= entries)
        return broken[self.lo] == broken[self.hi]


class _MabPairs:
    """What every MAB geometry of one sweep's group derives alike.

    The MAB rule, over the lookups: an installing (non-bypass) lookup
    with key ``k`` and set ``s`` is a MAB hit iff the previous
    installing lookup of the same ``(k, s)`` pair exists — it left the
    pair valid, memoizing the way the cache resolved — and, over the
    lookups since then up to this one,

    * every lookup of ``k`` had tag-side LRU stack distance < Nt (so
      ``k``'s row was never evicted and cleared);
    * every lookup of ``s`` had index-side stack distance < Ns (so
      ``s``'s column was never evicted and cleared) and none of them
      was a bypass (the paper's column-clear rule);
    * in ``evict_hook`` mode, the sweep never evicted line
      ``(tag, s)`` (:meth:`kept`).

    Both sides are LRU and every installing lookup touches its key and
    its set, hit or miss, so those distances are LRU stack distances of
    the key and set streams.  A MAB hit is *verified* iff the sweep
    hits now in the way it resolved at the pair's previous lookup, and
    *stale* otherwise.  The distances come from the columns object,
    walked once per stream with the widest (Nt, Ns) of the group.
    """

    def __init__(self, cols, shared, config: CacheConfig, group, skip,
                 stores, stream: str):
        offset_bits, index_bits = config.offset_bits, config.index_bits
        self._offset_bits = offset_bits
        self._index_bits = index_bits
        # Every access looks up, or only those ``skip`` leaves: then the
        # keys are computed at the lookups alone.
        if skip is None:
            lookup = None
            keys = cols.keys_array(offset_bits, index_bits)
            sets = cols.sets_array(offset_bits, index_bits)
        else:
            lookup = np.flatnonzero(~skip)
            keys = cols.keys_at(offset_bits, index_bits, lookup)
            sets = cols.sets_array(offset_bits, index_bits)[lookup]
            if stores is not None:
                stores = stores[lookup]
        installs = np.flatnonzero(keys >= 0)
        self.lookups = len(keys)
        self.bypasses = self.lookups - len(installs)
        self.stores = 0 if stores is None else int(np.count_nonzero(stores))

        # Pair every installing lookup q with its predecessor p on the
        # same (key, set).  ``earlier`` / ``later`` are their stream
        # positions.
        k = keys[installs]
        s = sets[installs]
        p, q = repeat_pairs(k, s)
        p, q = installs[p], installs[q]
        self.earlier = p if lookup is None else lookup[p]
        self.later = q if lookup is None else lookup[q]

        name = f"{stream}{offset_bits}x{index_bits}"
        tag_cap = max(mab.tag_entries for mab in group)
        index_cap = max(mab.index_entries for mab in group)
        k_walk = cols.lru_distance(f"mab-keys{name}", lambda: k, tag_cap)
        s_walk = cols.lru_distance(f"mab-sets{name}", lambda: s, index_cap)
        # Per lookup: a bypass keeps key -1, which no pair shares, and
        # counts as broken on the set side.
        key_distances = np.zeros(self.lookups, dtype=k_walk.dtype)
        key_distances[installs] = k_walk
        set_distances = np.full(
            self.lookups, np.iinfo(s_walk.dtype).max, dtype=s_walk.dtype
        )
        set_distances[installs] = s_walk
        self._keys = _LruSide(keys, key_distances, p, q)
        self._sets = _LruSide(sets, set_distances, p, q)
        self.same_way = shared.same_way(self.earlier, self.later)
        self.stored = None if stores is None else stores[q]

    def resident(self, mab_config: MABConfig) -> np.ndarray:
        """Pairs the paper's rules keep valid, per previous-lookup pair."""
        return (
            self._keys.unbroken(mab_config.tag_entries)
            & self._sets.unbroken(mab_config.index_entries)
        )

    def kept(self, cols, shared) -> np.ndarray:
        """Pairs whose line the sweep did not evict in between."""
        tags = cols.tags_array(self._offset_bits, self._index_bits)
        sets = cols.sets_array(self._offset_bits, self._index_bits)
        lines = (tags[self.later] << self._index_bits) | sets[self.later]
        return ~shared.evicted_between(
            sets, self._index_bits, lines, self.earlier, self.later
        )

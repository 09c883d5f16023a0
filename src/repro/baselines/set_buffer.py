"""Yang, Yu & Zhang [14]: lightweight set buffer for data caches.

The set buffer keeps, for a handful of recently touched *sets*, a copy
of that set's tags.  When an access finds its set buffered, the tag
comparison happens against the cheap buffer copy instead of the cache
tag array, and only the resolved way is accessed — with no cycle
penalty on a buffer miss (unlike line/filter buffers).  The paper notes
the technique "cannot exploit inter-cache-line access locality" at the
*address* level: it memoizes per-set tag state, so it keeps paying the
buffer lookup and cannot skip way resolution the way the MAB does.

Accounting (Figure 4's "approach [14]" bars):

* buffer hit + tag match: 0 cache tag reads, 1 way; one buffer probe.
* buffer hit + tag mismatch: the access is a cache miss — full miss
  handling, buffered tag copy updated.
* buffer miss: full parallel access (all tags, all ways for loads) and
  the set's tags are copied into the buffer (LRU replacement).

The cache is accessed exactly once per reference on both buffer paths,
so the replay engine's shared
:meth:`SetAssociativeCache.access_fast_batch` sweep serves this design
too and the buffer's behaviour is *derived* from the packed results
without a per-access loop (:func:`set_buffer_counters`): the buffered
snapshot of a set always mirrors the live tag row, so "buffered tag
matches" is exactly "the set is buffered and the access hits", and
buffer membership is a pure function of the set index stream — the
LRU set of the last ``entries`` distinct set indices, i.e. an LRU
stack distance below ``entries`` (the columns' shared distance helper,
fully vectorized for the default two-entry buffer).
:meth:`process_reference` keeps the object-API loop as the executable
specification.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import DataColumns, SharedPass
from repro.replay.engine import (
    Controller, DesignPoint, fast_path, stream_accesses,
)
from repro.sim.trace import DataTrace


class SetBufferDCache(Controller):
    """D-cache fronted by an N-entry set buffer.

    The default of two buffered sets reflects the "lightweight"
    sizing of [14] (the technique targets streaming multimedia code
    whose set-wise locality is shallow).
    """

    def __init__(
        self,
        cache_config: CacheConfig = FRV_DCACHE,
        entries: int = 2,
        policy: str = "lru",
    ):
        if entries < 1:
            raise ValueError("set buffer needs at least one entry")
        self.cache_config = cache_config
        self.entries = entries
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        # set_index -> copy of that set's tags (way -> Optional[tag]).
        self._buffer: Dict[int, List[Optional[int]]] = {}
        self._lru: List[int] = []  # set indices, LRU first

    @classmethod
    def from_point(cls, point: DesignPoint) -> "SetBufferDCache":
        return cls(point.cache, point.entries, point.policy)

    def design_point(self) -> DesignPoint:
        return replace(super().design_point(), entries=self.entries)

    # ------------------------------------------------------------------

    def _snapshot_set(self, set_index: int) -> List[Optional[int]]:
        tags: List[Optional[int]] = []
        for way in range(self.cache_config.ways):
            line = self.cache.line_state(set_index, way)
            tags.append(line.tag if line.valid else None)
        return tags

    def _touch(self, set_index: int) -> None:
        if set_index in self._lru:
            self._lru.remove(set_index)
        self._lru.append(set_index)

    def _allocate(self, set_index: int) -> None:
        if set_index not in self._buffer and len(self._buffer) >= self.entries:
            victim = self._lru.pop(0)
            del self._buffer[victim]
        self._buffer[set_index] = self._snapshot_set(set_index)
        self._touch(set_index)

    # ------------------------------------------------------------------
    # reference implementation (executable specification)
    # ------------------------------------------------------------------

    def process_reference(self, trace: DataTrace) -> AccessCounters:
        """Replay via the original object-API path (spec for diff tests)."""
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache

        for addr, is_store in stream_accesses(trace, counters):
            tag, set_index, _ = cfg.split(addr)
            counters.aux_accesses += 1  # the buffer is probed every access

            buffered = self._buffer.get(set_index)
            if buffered is not None and tag in buffered:
                # Buffer hit with matching tag: single-way access, no
                # cache tag reads.
                result = cache.access(addr)
                assert result.hit, "buffered tag must be cache-resident"
                counters.cache_hits += 1
                counters.way_accesses += 1
                self._touch(set_index)
                continue

            # Either the set is not buffered, or the buffered tags do
            # not contain this address (which implies a cache miss,
            # since the buffer mirrors the set's tags exactly).
            result = cache.access(addr)
            counters.tag_accesses += cfg.ways
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += 1 if is_store else cfg.ways
            else:
                counters.cache_misses += 1
                counters.way_accesses += (1 if is_store else cfg.ways) + 1
            self._allocate(set_index)

        counters.notes["set_buffer_entries"] = self.entries
        return counters


@fast_path(SetBufferDCache)
def set_buffer_counters(
    cols: DataColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation).

    The buffered snapshot of a set always mirrors that set's live tag
    row (hits never change tags, other sets can't touch this row, and
    every mismatch path refreshes the snapshot after the access), so a
    buffered-tag match is exactly ``in_buffer & hit``.  Buffer
    membership is the LRU set of the last ``entries`` distinct set
    indices: an access is buffered iff its set's LRU stack distance is
    below ``entries`` (:meth:`DataColumns.lru_distance`, which the MAB
    derivation uses too).  The snapshot refreshes are side state only —
    no counter reads them — so the derivation skips them.
    """
    counters = AccessCounters()
    config = point.cache
    nways = config.ways
    entries = point.entries
    n = cols.n
    counters.notes["set_buffer_entries"] = entries
    offset_bits, index_bits = config.offset_bits, config.index_bits
    sets = cols.sets_array(offset_bits, index_bits)
    in_buffer = cols.lru_distance(
        f"sets{offset_bits}x{index_bits}", lambda: sets, entries
    ) < entries
    hit = shared.hit
    matched = in_buffer & hit

    store = cols.store_mask
    unmatched_hit = ~matched & hit
    unmatched_miss = ~hit  # a match implies a hit: misses all unmatched
    n_matched = int(matched.sum())
    hit_stores = int((unmatched_hit & store).sum())
    hit_loads = int(unmatched_hit.sum()) - hit_stores
    miss_stores = int((unmatched_miss & store).sum())
    miss_loads = int(unmatched_miss.sum()) - miss_stores

    hits = shared.hit_count
    counters.accesses = n
    counters.aux_accesses = n  # the buffer is probed every access
    counters.cache_hits = hits
    counters.cache_misses = n - hits
    counters.tag_accesses = nways * (n - n_matched)
    counters.way_accesses = (
        n_matched                        # single-way buffered access
        + hit_stores                     # single-way store
        + hit_loads * nways              # parallel load
        + miss_stores * 2                # store + refill write
        + miss_loads * (nways + 1)       # parallel load + refill
    )
    cols.apply_load_store(counters)
    return counters

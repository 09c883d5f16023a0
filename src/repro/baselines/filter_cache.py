"""Kin, Gupta & Mangione-Smith [6]: the filter cache (L0).

A tiny cache sits between the core and L1.  L0 hits are cheap; L0
misses pay one extra cycle plus a full L1 access.  This is the classic
energy/performance trade the paper's zero-penalty technique is set
against.  The L0 is modelled as a small fully-associative cache of L1
line-size lines, kept *inclusive* in L1: when L1 evicts a line the L0
copy is invalidated through the eviction listener, so an L0 hit always
refers to an L1-resident line (without the listener a line could
linger in the L0 after its L1 eviction, and a write-through on such a
stale L0 hit would silently miss-fill L1 with uncharged energy — a
consistency bug the fast/reference differential matrix exposed).  A
fetch is a load, which never writes through, so one controller serves
both caches.

:func:`filter_cache_counters` is the fast path the replay engine
drives, fed from the shared columnar pre-split
(:mod:`repro.replay.columns`).  L0 hits skip L1, so the L1 access
stream depends on the L0 and this design cannot ride the shared batch
sweep.  Instead one walk visits the run heads (an access to the line of
the access before it is an L0 hit) in stream order with the exact L0
list, starting empty, and *queues* every L1 access, L0 misses and
write-through stores alike, in stream order, for a fresh shadow L1 of
the design point's geometry and policy.

The L0 depends on L1 only through invalidations, and those can land at
one kind of access only: an L0 miss into an L1 set that holds an
L0-resident line.  A write-through always hits (the L0 is inclusive),
so it evicts nothing; an L0 miss evicts a line of its own set, if any,
and when no L0 line maps to that set the eviction invalidates nothing.
At such a miss the walk runs the queue in order through the shadow's
scalar loop, that miss included, and drops the evicted line from the
L0 if the packed result names a resident one; whatever is still queued
at the end runs as one :meth:`SetAssociativeCache.access_fast_batch`.
The shadow has no inclusion listener: the walk applies the
invalidations itself, at the access they belong to, while a listener
would check each eviction against the L0 as it is when the queue runs.
Listener-free, a 2-way LRU L1 (both FR-V caches) takes the vectorized
sweep kernel.  The queue keeps the global L1 order, so the walk is
exact for every geometry and replacement policy, the random policy's
draws included, and the counters come from one tally of the packed
results.  The per-access object-API loop is retained as the executable
specification for the differential tests; it keeps its cache and L0
across calls, while the fast path, like every design's, starts cold.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

import numpy as np

from repro.cache.cache import (
    _F_EVICTED,
    _F_HIT,
    _F_TAG_SHIFT,
    SetAssociativeCache,
)
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import SharedPass
from repro.replay.engine import (
    Controller, DesignPoint, fast_path, stream_accesses,
)

#: Default filter cache size: 256 B of 32 B lines, fully associative.
DEFAULT_L0_LINES = 8


class FilterCache(Controller):
    """An L0 filter cache in front of L1, inclusive in L1."""

    def __init__(self, cache_config: CacheConfig = FRV_DCACHE,
                 l0_lines: int = DEFAULT_L0_LINES, policy: str = "lru"):
        if l0_lines < 1:
            raise ValueError("filter cache needs at least one line")
        self.cache_config = cache_config
        self.l0_lines = l0_lines
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        self._l0: list = []  # line addresses, MRU at back
        # L0 is inclusive in L1: evicting the L1 line kills the copy.
        self.cache.add_eviction_listener(self._on_l1_evict)

    @classmethod
    def from_point(cls, point: DesignPoint) -> "FilterCache":
        return cls(point.cache, point.entries, point.policy)

    def design_point(self) -> DesignPoint:
        return replace(super().design_point(), entries=self.l0_lines)

    def _on_l1_evict(self, tag: int, set_index: int) -> None:
        line = self.cache_config.join(tag, set_index)
        if line in self._l0:
            self._l0.remove(line)

    # -- executable specification ---------------------------------------

    def process_reference(self, stream) -> AccessCounters:
        counters = AccessCounters()
        cfg = self.cache_config
        for addr, is_store in stream_accesses(stream, counters):
            line = cfg.line_addr(addr)
            counters.aux_accesses += 1  # L0 probe (cheap)
            if line in self._l0:
                self._l0.remove(line)
                self._l0.append(line)
                counters.cache_hits += 1
                if is_store:
                    # Write-through to L1, so L1 recency follows the
                    # store.
                    self.cache.access(addr)
                continue

            # L0 miss: one stall cycle, then the full L1 access.
            counters.extra_cycles += 1
            result = self.cache.access(addr)
            counters.tag_accesses += cfg.ways
            ways = 1 if is_store else cfg.ways
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += ways
            else:
                counters.cache_misses += 1
                counters.way_accesses += ways + 1  # refill write
            self._l0.append(line)
            if len(self._l0) > self.l0_lines:
                self._l0.pop(0)
        return counters


@fast_path(FilterCache)
def filter_cache_counters(
    cols, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from one walk over the run heads (see the module
    docstring).

    The L1 is a fresh, listener-free shadow of ``point``'s cache and
    policy and the L0 starts empty; the shared sweep is never read.
    """
    counters = AccessCounters()
    n = cols.n
    counters.accesses = n
    counters.aux_accesses = n  # L0 probe (cheap)
    cols.apply_load_store(counters)
    if n == 0:
        return counters

    config = point.cache
    cache = SetAssociativeCache(
        config, make_policy(point.policy, config.sets, config.ways)
    )
    offset_bits, index_bits = config.offset_bits, config.index_bits
    set_mask = cache.set_mask
    lines = cols.lines_array(offset_bits, index_bits)
    tags = cols.tags_array(offset_bits, index_bits)
    sets = cols.sets_array(offset_bits, index_bits)
    stores = cols.store_mask
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    heads = np.flatnonzero(head)

    # The walk keeps L0 lines as line numbers; ``held[s]`` counts the
    # L0 lines in L1 set ``s``.
    l0: list = []
    held = [0] * config.sets
    l0_lines = point.entries
    misses: list = []  # stream positions of the L0 misses
    flushed: list = []  # packed results of the queue prefix run so far
    queued_misses = 0  # first queued entry of ``misses``...
    queued_stores = 0  # ...and of the store positions
    scalar = None  # per-position lists, built at the first flush

    for pos, line in zip(heads.tolist(), lines[heads].tolist()):
        if line in l0:
            l0.remove(line)
            l0.append(line)
            continue
        misses.append(pos)
        s = line & set_mask
        if held[s]:
            # This miss may evict an L0 line: run the queue up to it,
            # then apply the invalidation.
            if scalar is None:
                scalar = (
                    tags.tolist(), sets.tolist(),
                    np.flatnonzero(stores).tolist(),
                )
            tag_list, set_list, store_list = scalar
            end = bisect_right(store_list, pos, queued_stores)
            due = sorted({
                *misses[queued_misses:],
                *store_list[queued_stores:end],
            })
            packed = cache._batch_scalar(
                [tag_list[p] for p in due], [set_list[p] for p in due]
            )
            flushed += packed
            queued_misses = len(misses)
            queued_stores = end
            if packed[-1] & _F_EVICTED:
                victim = ((packed[-1] >> _F_TAG_SHIFT) << index_bits) | s
                if victim in l0:
                    l0.remove(victim)
                    held[s] -= 1
        l0.append(line)
        held[s] += 1
        if len(l0) > l0_lines:
            held[l0.pop(0) & set_mask] -= 1

    # The L1 stream: every L0 miss and every write-through.
    l0_miss = np.zeros(n, dtype=bool)
    l0_miss[np.array(misses, dtype=np.int64)] = True
    queue = np.flatnonzero(l0_miss | stores)
    rest = queue[len(flushed):]
    packed = np.concatenate((
        np.array(flushed, dtype=np.int64),
        cache.access_fast_batch(tags[rest], sets[rest]),
    ))

    missed = (packed & _F_HIT) == 0
    if missed[~l0_miss[queue]].any():
        raise AssertionError("write-through must hit (L0 inclusive in L1)")
    l0_misses = len(misses)
    cache_misses = int(np.count_nonzero(missed))
    miss_stores = int(np.count_nonzero(l0_miss & stores))
    counters.cache_hits = n - cache_misses
    counters.cache_misses = cache_misses
    counters.tag_accesses = config.ways * l0_misses
    # An L0 miss reads every way (a store writes one); a fill writes
    # one more.
    counters.way_accesses = (
        config.ways * l0_misses - (config.ways - 1) * miss_stores
        + cache_misses
    )
    counters.extra_cycles = l0_misses
    return counters

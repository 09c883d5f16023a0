"""Way memoization combined with a line buffer (paper's future work).

The conclusion states: "We are currently extending our approach by
combining it with the line buffer technique to achieve more saving."
This module implements that combination for the D-cache:

* a small LRU line buffer sits in front of the cache; a buffer hit
  serves the access without touching tag or data arrays at all
  (cost: one buffer read, counted in ``aux_accesses``);
* buffer misses fall through to the normal MAB way-memoization path
  and allocate the line into the buffer.

The buffer is kept coherent with the cache via the eviction listener,
and dirty data is assumed written through to the cache arrays when a
line leaves the buffer (energy for that is charged as a way access).

Every access still reaches the cache (a buffer hit keeps its recency
current), so the cache evolves exactly as without the buffer and the
MAB, and the design is batchable: :func:`line_buffer_memo_counters`
derives which accesses the buffer serves from the shared sweep
(:func:`buffer_hits`) and runs the way-memo derivation
(:func:`~repro.core.mab.way_memo_counters`) over the buffer misses.
:meth:`process_reference` is the executable specification.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.line_buffer import LineBuffer
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.core.mab import MAB, MABConfig, way_memo_counters
from repro.replay.columns import DataColumns, SharedPass
from repro.replay.engine import Controller, DesignPoint, fast_path
from repro.sim.trace import DataTrace


def buffer_hits(
    cols: DataColumns, shared: SharedPass, config: CacheConfig,
    entries: int,
) -> np.ndarray:
    """Which accesses an ``entries``-line buffer serves (boolean mask).

    An access to the previous access's line always hits: that line is
    the buffer's MRU entry, and the previous access left it in the
    cache.  Such an access changes no state, so only the run heads (the
    accesses that change line) are in question.  A one-line buffer
    holds only the previous line, so every head misses; a deeper buffer
    is walked over the heads, dropping each line the sweep evicts
    (evictions happen only on cache misses, which are heads).
    """
    lines = cols.lines_array(config.offset_bits, config.index_bits)
    hits = np.zeros(cols.n, dtype=bool)
    np.equal(lines[1:], lines[:-1], out=hits[1:])
    if entries > 1:
        heads = np.flatnonzero(~hits)
        at, lost = shared.evictions(
            cols.sets_array(config.offset_bits, config.index_bits),
            config.index_bits,
        )
        evicted = np.full(len(heads), -1, dtype=np.int64)
        evicted[np.searchsorted(heads, at)] = lost << config.offset_bits
        buffer = LineBuffer(config, entries)
        served = []
        for addr, gone in zip(
            (lines[heads] << config.offset_bits).tolist(), evicted.tolist()
        ):
            served.append(buffer.access(addr))
            if gone >= 0:
                buffer.invalidate_line(gone)
        hits[heads] = served
    return hits


class LineBufferWayMemoDCache(Controller):
    """D-cache with line buffer + MAB way memoization stacked."""

    def __init__(
        self,
        cache_config: CacheConfig = FRV_DCACHE,
        mab_config: MABConfig = MABConfig(2, 8),
        line_buffer_entries: int = 1,
        policy: str = "lru",
    ):
        self.cache_config = cache_config
        self.mab_config = mab_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        self.mab = MAB(mab_config, cache_config)
        self.line_buffer = LineBuffer(cache_config, line_buffer_entries)
        if mab_config.consistency == "evict_hook":
            self.cache.add_eviction_listener(self.mab.invalidate_line)
        # Keep the buffer coherent with the cache regardless of mode.
        self.cache.add_eviction_listener(self._on_cache_evict)

    @classmethod
    def from_point(cls, point: DesignPoint) -> "LineBufferWayMemoDCache":
        return cls(point.cache, point.mab, point.entries, point.policy)

    def design_point(self) -> DesignPoint:
        return replace(
            super().design_point(), entries=self.line_buffer.entries
        )

    def _on_cache_evict(self, tag: int, set_index: int) -> None:
        self.line_buffer.invalidate_line(
            self.cache_config.join(tag, set_index)
        )

    # ------------------------------------------------------------------
    # reference implementation (executable specification)
    # ------------------------------------------------------------------

    def process_reference(self, trace: DataTrace) -> AccessCounters:
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        mab = self.mab
        lbuf = self.line_buffer

        for base, disp, is_store in zip(
            trace.base.tolist(), trace.disp.tolist(), trace.store.tolist()
        ):
            counters.accesses += 1
            if is_store:
                counters.stores += 1
            else:
                counters.loads += 1
            addr = (base + disp) & 0xFFFFFFFF

            counters.aux_accesses += 1  # the buffer is probed every access
            if lbuf.access(addr):
                # Line buffer hit: no cache arrays touched.  Keep the
                # cache's replacement state in step (the line is
                # architecturally still resident and used).
                result = cache.access(addr)
                assert result.hit, "buffered line must be cache-resident"
                counters.cache_hits += 1
                continue

            counters.mab_lookups += 1
            lookup = mab.lookup(base, disp)

            if lookup.bypass:
                counters.mab_bypasses += 1
                mab.on_bypass(lookup.set_index)
                self._full_access(counters, addr, is_store, None)
                continue

            if lookup.hit:
                # Verify the memoized way: a tag lives in at most one
                # way, so the access hits there iff the line is there.
                if cache.probe(addr) == lookup.way:
                    cache.access(addr)
                    counters.mab_hits += 1
                    counters.cache_hits += 1
                    counters.way_accesses += 1
                    continue
                counters.stale_hits += 1

            self._full_access(counters, addr, is_store, lookup)

        counters.notes["mab_label"] = self.mab_config.label
        counters.notes["line_buffer_hit_rate"] = self.line_buffer.hit_rate
        return counters

    def _full_access(self, counters, addr, is_store, install) -> None:
        cfg = self.cache_config
        result = self.cache.access(addr)
        counters.tag_accesses += cfg.ways
        if result.hit:
            counters.cache_hits += 1
            counters.way_accesses += 1 if is_store else cfg.ways
        else:
            counters.cache_misses += 1
            counters.way_accesses += (1 if is_store else cfg.ways) + 1
        if install is not None:
            self.mab.install(install, result.way)


@fast_path(LineBufferWayMemoDCache)
def line_buffer_memo_counters(
    cols: DataColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared sweep (pure derivation).

    The MAB sees exactly the buffer misses.  With more than one entry
    the buffer hits depend on the sweep's evictions, so the lookup
    stream is named by the cache's ways and policy too.
    """
    config = point.cache
    entries = point.entries
    served = shared.memo(
        f"line-buffer{entries}",
        lambda: buffer_hits(cols, shared, config, entries),
    )
    counters = way_memo_counters(
        point, cols, shared, skip=served, stores=cols.store_mask,
        stream=f"line-buffer{entries}-{config.ways}-{point.policy}",
    )
    n = cols.n
    buffered = n - counters.mab_lookups
    # A buffer hit reads no way; the derivation charges it one.
    counters.way_accesses -= buffered
    counters.aux_accesses = n  # the buffer is probed every access
    cols.apply_load_store(counters)
    counters.notes["line_buffer_hit_rate"] = buffered / n if n else 0.0
    return counters

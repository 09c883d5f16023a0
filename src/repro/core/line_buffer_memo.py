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

:meth:`process_reference` is the executable specification.  The design
has no columnar fast path yet, so the replay engine runs this loop for
its ``process`` too.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.line_buffer import LineBuffer
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.core.mab import MAB, MABConfig
from repro.replay.engine import Controller
from repro.sim.trace import DataTrace


class LineBufferWayMemoDCache(Controller):
    """D-cache with line buffer + MAB way memoization stacked."""

    name = "way-memo+line-buffer"

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

    def _on_cache_evict(self, tag: int, set_index: int) -> None:
        self.line_buffer.invalidate_line(
            self.cache_config.join(tag, set_index)
        )

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
                result = cache.access(addr, write=is_store)
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
                # Verify the memoized way and complete the hit in one
                # tag comparison (replaces the probe() + access()
                # double scan; a tag lives in at most one way).
                if cache.hit_confirm(
                    lookup.tag, lookup.set_index, lookup.way, is_store
                ):
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
        result = self.cache.access(addr, write=is_store)
        counters.tag_accesses += cfg.ways
        if result.hit:
            counters.cache_hits += 1
            counters.way_accesses += 1 if is_store else cfg.ways
        else:
            counters.cache_misses += 1
            counters.way_accesses += (1 if is_store else cfg.ways) + 1
        if install is not None:
            self.mab.install(install, result.way)

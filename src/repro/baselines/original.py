"""The unmodified ("original") cache architecture.

Every access compares all ways' tags in parallel.  Loads and
instruction fetches also read all data ways in parallel (way selection
happens after tag compare); stores resolve the way first through the
write-back buffer and write a single way (paper Section 4, which is why
the original D-cache's ways-per-access is below 2 in Figure 4).

Both controllers' counters are a pure function of the columnar
pre-split from :mod:`repro.replay.columns` and the packed per-access
results of the replay engine's shared ``access_fast_batch`` sweep
(:func:`original_dcache_counters`, :func:`original_icache_counters`),
so one sweep serves every batchable architecture.
``process_reference`` keeps the original object-API loops as the
executable specification for the differential tests.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE, FRV_ICACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.cache.write_buffer import WriteBuffer
from repro.replay.columns import DataColumns, FetchColumns, SharedPass
from repro.replay.engine import Controller, DesignPoint, fast_path
from repro.sim.fetch import FetchStream
from repro.sim.trace import DataTrace


class OriginalDCache(Controller):
    """Baseline D-cache: parallel tag + data access, single-way stores."""

    name = "original"

    def __init__(
        self,
        cache_config: CacheConfig = FRV_DCACHE,
        policy: str = "lru",
    ):
        self.cache_config = cache_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        self.write_buffer = WriteBuffer(cache_config)

    def process_reference(self, trace: DataTrace) -> AccessCounters:
        """Replay via the original object-API path (spec for diff tests)."""
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        for base, disp, is_store in zip(
            trace.base.tolist(), trace.disp.tolist(), trace.store.tolist()
        ):
            counters.accesses += 1
            if is_store:
                counters.stores += 1
                self.write_buffer.push((base + disp) & 0xFFFFFFFF)
            else:
                counters.loads += 1
            addr = (base + disp) & 0xFFFFFFFF
            result = cache.access(addr)
            counters.tag_accesses += cfg.ways
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += 1 if is_store else cfg.ways
            else:
                counters.cache_misses += 1
                counters.way_accesses += (1 if is_store else cfg.ways) + 1
        return counters


class OriginalICache(Controller):
    """Baseline I-cache: every fetch reads all tags and all ways."""

    name = "original"

    def __init__(
        self,
        cache_config: CacheConfig = FRV_ICACHE,
        policy: str = "lru",
    ):
        self.cache_config = cache_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )

    def process_reference(self, fetch: FetchStream) -> AccessCounters:
        """Replay via the original object-API path (spec for diff tests)."""
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        for addr in fetch.addr.tolist():
            counters.accesses += 1
            result = cache.access(addr)
            counters.tag_accesses += cfg.ways
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += cfg.ways
            else:
                counters.cache_misses += 1
                counters.way_accesses += cfg.ways + 1
        return counters


@fast_path(OriginalDCache)
def original_dcache_counters(
    cols: DataColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation).

    The write buffer is side state only — no counter reads it — so
    the derivation skips it entirely.
    """
    counters = AccessCounters()
    nways = point.cache.ways
    n = cols.n
    hit = shared.hit
    num_stores = cols.num_stores
    store_hits = int(hit[cols.store_mask].sum())
    cache_hits = shared.hit_count
    load_hits = cache_hits - store_hits
    store_misses = num_stores - store_hits
    load_misses = (n - num_stores) - load_hits

    counters.accesses = n
    counters.cache_hits = cache_hits
    counters.cache_misses = n - cache_hits
    counters.tag_accesses = nways * n
    counters.way_accesses = (
        store_hits                       # single-way store
        + load_hits * nways              # parallel load
        + store_misses * 2               # store + refill write
        + load_misses * (nways + 1)      # parallel load + refill
    )
    cols.apply_load_store(counters)
    return counters


@fast_path(OriginalICache)
def original_icache_counters(
    cols: FetchColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation)."""
    counters = AccessCounters()
    nways = point.cache.ways
    n = cols.n
    cache_hits = shared.hit_count
    cache_misses = n - cache_hits

    counters.accesses = n
    counters.cache_hits = cache_hits
    counters.cache_misses = cache_misses
    counters.tag_accesses = nways * n
    counters.way_accesses = (
        cache_hits * nways + cache_misses * (nways + 1)
    )
    return counters

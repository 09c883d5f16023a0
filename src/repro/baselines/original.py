"""The unmodified ("original") cache architecture.

Every access compares all ways' tags in parallel.  Loads and
instruction fetches also read all data ways in parallel (way selection
happens after tag compare); stores resolve the way first through the
write-back buffer and write a single way (paper Section 4, which is why
the original D-cache's ways-per-access is below 2 in Figure 4).  A
fetch is a load, so one controller serves both caches.

The counters are a pure function of the columnar pre-split from
:mod:`repro.replay.columns` and the packed per-access results of the
replay engine's shared ``access_fast_batch`` sweep
(:func:`original_counters`), so one sweep serves every batchable
architecture.  ``process_reference`` keeps the object-API loop as the
executable specification for the differential tests.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import SharedPass
from repro.replay.engine import (
    Controller, DesignPoint, fast_path, stream_accesses,
)


class OriginalCache(Controller):
    """Baseline cache: parallel tag + data access, single-way stores."""

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

    def process_reference(self, stream) -> AccessCounters:
        """Replay via the original object-API path (spec for diff tests)."""
        counters = AccessCounters()
        nways = self.cache_config.ways
        cache = self.cache
        for addr, is_store in stream_accesses(stream, counters):
            result = cache.access(addr)
            counters.tag_accesses += nways
            ways = 1 if is_store else nways
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += ways
            else:
                counters.cache_misses += 1
                counters.way_accesses += ways + 1  # refill write
        return counters


@fast_path(OriginalCache)
def original_counters(
    cols, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation).

    A fetch stream has no stores, so its way count reduces to
    ``hits * ways + misses * (ways + 1)``.
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

"""Hasegawa et al. [8]: the two-phase (phased) cache.

Phase 1 compares all tags; phase 2 accesses only the hitting data way.
This eliminates wasted way reads entirely but serialises tag and data
access, costing a cycle of latency on every access — the performance
loss the paper's MAB avoids while reaching similar way-access counts.
Stores and fetches cost what loads cost, so one controller serves both
caches.

The cache sees every access exactly once whatever the phase outcome,
so the counters derive from the totals of the replay engine's shared
:meth:`SetAssociativeCache.access_fast_batch` sweep (every access
costs all tags, one way and one cycle) — a pure function of the
columns and packed results (:func:`two_phase_counters`).
:meth:`process_reference` keeps the per-access object-API loop as the
executable specification.
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


class TwoPhaseCache(Controller):
    """Phased cache: all tags first, then the hit way alone."""

    def __init__(self, cache_config: CacheConfig = FRV_DCACHE,
                 policy: str = "lru"):
        self.cache_config = cache_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )

    def process_reference(self, stream) -> AccessCounters:
        """Replay via the object-API path (spec for diff tests)."""
        counters = AccessCounters()
        nways = self.cache_config.ways
        for addr, _ in stream_accesses(stream, counters):
            result = self.cache.access(addr)
            counters.tag_accesses += nways     # phase 1
            counters.extra_cycles += 1         # serialised phases
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += 1     # phase 2: the hit way only
            else:
                counters.cache_misses += 1
                counters.way_accesses += 1     # refill write
        return counters


@fast_path(TwoPhaseCache)
def two_phase_counters(
    cols, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation)."""
    counters = AccessCounters()
    n = cols.n
    hits = shared.hit_count
    counters.accesses = n
    counters.cache_hits = hits
    counters.cache_misses = n - hits
    counters.tag_accesses = point.cache.ways * n  # phase 1, every access
    counters.way_accesses = n                     # hit way or refill write
    counters.extra_cycles = n                     # serialised phases
    cols.apply_load_store(counters)
    return counters

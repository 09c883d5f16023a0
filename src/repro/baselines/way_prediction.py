"""Inoue, Ishihara & Murakami [9]: way-predicting set-associative cache.

A per-set MRU table predicts the way; first cycle accesses only the
predicted way's tag + data.  On a correct prediction the access costs
one tag and one way.  On a misprediction a second cycle probes the
remaining ways (their tags and data), costing one extra cycle — the
performance loss the paper's MAB technique avoids.  Stores and fetches
are predicted like loads, so one controller serves both caches.

The prediction table never influences which line the cache loads —
every access touches the cache exactly once — so the fast path derives
the MRU table's behaviour from the replay engine's shared
:meth:`SetAssociativeCache.access_fast_batch` sweep *without any
per-access loop* (:func:`way_prediction_counters`): an access's
predicted way is the way its set's previous access resolved, so
:func:`~repro.replay.columns.repeat_pairs` of the set column pairs each
access with that predecessor, and a prediction is correct iff the
sweep hits in the predecessor's way.  :meth:`process_reference` keeps
the per-access object-API loop as the executable specification.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import SharedPass, repeat_pairs
from repro.replay.engine import (
    Controller, DesignPoint, fast_path, stream_accesses,
)


class WayPredictionCache(Controller):
    """Way-predicting cache with a per-set MRU prediction table."""

    def __init__(self, cache_config: CacheConfig = FRV_DCACHE,
                 policy: str = "lru"):
        self.cache_config = cache_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        # MRU prediction table: one way number per set.
        self._predicted = [0] * cache_config.sets

    def process_reference(self, stream) -> AccessCounters:
        """Replay via the object-API path (spec for diff tests)."""
        counters = AccessCounters()
        cfg = self.cache_config
        for addr, _ in stream_accesses(stream, counters):
            _, set_index, _ = cfg.split(addr)
            prediction = self._predicted[set_index]
            counters.aux_accesses += 1  # prediction table read
            result = self.cache.access(addr)

            # First phase: predicted way only.
            counters.tag_accesses += 1
            counters.way_accesses += 1
            if result.hit and result.way == prediction:
                counters.cache_hits += 1
            else:
                # Mispredict (or miss): second phase probes the
                # remaining ways in parallel — one extra cycle.
                counters.extra_cycles += 1
                counters.tag_accesses += cfg.ways - 1
                counters.way_accesses += cfg.ways - 1
                if result.hit:
                    counters.cache_hits += 1
                else:
                    counters.cache_misses += 1
                    counters.way_accesses += 1  # refill write
            self._predicted[set_index] = result.way
        return counters


@fast_path(WayPredictionCache)
def way_prediction_counters(
    cols, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Derive the MRU table's behaviour from the shared results.

    The prediction for an access is the resident way of the previous
    access *to the same set*.  A set's first access reads the fresh
    table's way 0, but it always misses in the fresh shadow cache, so
    only the accesses with a same-set predecessor can predict right.
    """
    counters = AccessCounters()
    config = point.cache
    nways = config.ways
    n = cols.n
    earlier, later = repeat_pairs(
        cols.sets_array(config.offset_bits, config.index_bits)
    )
    # Second phase fires on every miss and every mispredicted hit.
    second = n - int(np.count_nonzero(shared.same_way(earlier, later)))
    hits = shared.hit_count
    misses = n - hits

    counters.accesses = n
    counters.aux_accesses = n  # prediction table read per access
    counters.cache_hits = hits
    counters.cache_misses = misses
    counters.extra_cycles = second
    # First phase always probes the predicted way; the second phase
    # probes the remaining ways in parallel; a miss adds one refill way
    # write.
    counters.tag_accesses = n + second * (nways - 1)
    counters.way_accesses = n + second * (nways - 1) + misses
    cols.apply_load_store(counters)
    return counters

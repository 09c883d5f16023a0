"""Panwar & Rennels [4]: intra-line sequential-flow tag elision.

For instruction fetches that stay within the current cache line and
arrive sequentially, the way is known from the previous access, so no
tag compare is needed and only that way is read.  All other flows —
inter-line sequential, taken branches, returns — pay the full parallel
access.  This is the left-most bar of the paper's Figure 6 and the
I-cache baseline in Figure 8 ("original + approach [4]").

Whether a fetch is intra-line depends only on the stream (its kind and
the previous access's line), never on cache state, and the cache is
accessed once per fetch either way.  The fast path therefore reads the
intra-line mask off the columnar pre-split and derives all counters
from the packed hit bits of the replay engine's shared
:meth:`SetAssociativeCache.access_fast_batch` sweep — a pure function
of (columns, packed results), :func:`panwar_counters`.
:meth:`process_reference` keeps the per-access object-API loop as the
executable specification.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_ICACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import FetchColumns, SharedPass
from repro.replay.engine import Controller, DesignPoint, fast_path
from repro.sim.fetch import FetchKind, FetchStream


class PanwarICache(Controller):
    """I-cache with intra-cache-line sequential-flow optimisation only."""

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

    # -- executable specification ---------------------------------------

    def process_reference(self, fetch: FetchStream) -> AccessCounters:
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        line_mask = ~(cfg.line_bytes - 1) & 0xFFFFFFFF
        seq = int(FetchKind.SEQ)
        last_line = None

        for addr, kind in zip(fetch.addr.tolist(), fetch.kind.tolist()):
            counters.accesses += 1
            line = addr & line_mask
            if kind == seq and line == last_line:
                counters.intra_line_hits += 1
                result = cache.access(addr)
                assert result.hit, "intra-line fetch must hit"
                counters.cache_hits += 1
                counters.way_accesses += 1
            else:
                result = cache.access(addr)
                counters.tag_accesses += cfg.ways
                if result.hit:
                    counters.cache_hits += 1
                    counters.way_accesses += cfg.ways
                else:
                    counters.cache_misses += 1
                    counters.way_accesses += cfg.ways + 1
            last_line = line
        return counters


@fast_path(PanwarICache)
def panwar_counters(
    cols: FetchColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation)."""
    counters = AccessCounters()
    n = cols.n
    if n == 0:
        return counters
    config = point.cache
    nways = config.ways
    intra = cols.intra_mask(config.offset_bits, config.index_bits)
    hit = shared.hit
    if not bool(hit[intra].all()):
        raise AssertionError("intra-line fetch must hit")

    n_intra = int(intra.sum())
    full_hits = shared.hit_count - n_intra
    misses = n - n_intra - full_hits

    counters.accesses = n
    counters.intra_line_hits = n_intra
    counters.cache_hits = n_intra + full_hits
    counters.cache_misses = misses
    counters.tag_accesses = (n - n_intra) * nways
    counters.way_accesses = (
        n_intra + full_hits * nways + misses * (nways + 1)
    )
    return counters

"""Way-memoizing D-cache controller (paper Section 3.1, Figure 1).

Replays a :class:`~repro.sim.trace.DataTrace` through a set-associative
cache fronted by a MAB and counts tag/way accesses:

* **MAB hit** — no tag reads, exactly one data way accessed (the
  memoized way).
* **MAB miss / bypass** — a normal access: all ways' tags are compared;
  loads read all data ways in parallel, stores write only the single
  resolved way (the write-back buffer makes single-way stores possible
  on the baseline FR-V too, Section 4).  The resolved way is then
  installed in the MAB.
* A cache **miss** additionally writes the refill into one way.

Every MAB hit is verified against the actual cache content; a mismatch
is a *stale hit* and is counted (``AccessCounters.stale_hits``).  The
paper's consistency argument predicts zero.

The MAB never changes what the cache does, so the design is batchable:
:func:`way_memo_dcache_counters` derives the counters from the replay
engine's shared cache sweep through
:func:`~repro.core.mab.way_memo_counters`, which every MAB geometry of
a group shares.  :meth:`WayMemoDCache.process_reference` keeps the
original object-API implementation as the executable specification;
``tests/test_fastpath_differential.py`` asserts the two agree
counter-for-counter on every workload.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.cache.write_buffer import WriteBuffer
from repro.core.mab import MAB, MABConfig, way_memo_counters
from repro.replay.columns import DataColumns, SharedPass
from repro.replay.engine import Controller, DesignPoint, fast_path
from repro.sim.trace import DataTrace


class WayMemoDCache(Controller):
    """D-cache with the paper's way-memoization MAB in front.

    Parameters
    ----------
    cache_config:
        Cache geometry; defaults to the FR-V 32 kB 2-way D-cache.
    mab_config:
        MAB size/consistency; the paper found 2x8 optimal for D-caches.
    policy:
        Cache replacement policy name (default ``lru``).
    """

    def __init__(
        self,
        cache_config: CacheConfig = FRV_DCACHE,
        mab_config: MABConfig = MABConfig(2, 8),
        policy: str = "lru",
    ):
        self.cache_config = cache_config
        self.mab_config = mab_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        self.mab = MAB(mab_config, cache_config)
        self.write_buffer = WriteBuffer(cache_config)
        if mab_config.consistency == "evict_hook":
            self.cache.add_eviction_listener(self.mab.invalidate_line)

    @classmethod
    def from_point(cls, point: DesignPoint) -> "WayMemoDCache":
        return cls(point.cache, point.mab, point.policy)

    # ------------------------------------------------------------------
    # reference implementation (executable specification)
    # ------------------------------------------------------------------

    def process_reference(self, trace: DataTrace) -> AccessCounters:
        """Replay ``trace`` through the original object-API path.

        Kept as the executable specification the fast engine is
        differentially tested against; runs the historical
        ``probe()``-then-``access()`` double scan on MAB hits.
        """
        counters = AccessCounters()
        cache = self.cache
        mab = self.mab
        wbuf = self.write_buffer

        bases = trace.base.tolist()
        disps = trace.disp.tolist()
        stores = trace.store.tolist()

        for base, disp, is_store in zip(bases, disps, stores):
            counters.accesses += 1
            if is_store:
                counters.stores += 1
            else:
                counters.loads += 1
            counters.mab_lookups += 1

            lookup = mab.lookup(base, disp)
            addr = (base + disp) & 0xFFFFFFFF

            if lookup.bypass:
                counters.mab_bypasses += 1
                mab.on_bypass(lookup.set_index)
                self._full_access(
                    counters, addr, is_store, install=None
                )
                continue

            if lookup.hit:
                actual = cache.probe(addr)
                if actual is not None and actual == lookup.way:
                    counters.mab_hits += 1
                    if is_store:
                        wbuf.push(addr)
                    result = cache.access(addr)
                    counters.cache_hits += 1
                    counters.way_accesses += 1  # memoized way only
                    assert result.hit, "MAB hit must be a cache hit"
                    continue
                counters.stale_hits += 1

            self._full_access(counters, addr, is_store, install=lookup)

        counters.notes["mab_label"] = self.mab_config.label
        counters.notes["write_buffer_coalesced"] = self.write_buffer.coalesced
        return counters

    # ------------------------------------------------------------------

    def _full_access(self, counters, addr, is_store, install) -> None:
        """Normal cache access (all tags compared), then MAB install."""
        cfg = self.cache_config
        if is_store:
            self.write_buffer.push(addr)
        result = self.cache.access(addr)
        counters.tag_accesses += cfg.ways
        if result.hit:
            counters.cache_hits += 1
            # Loads read all data ways in parallel with the tag
            # compare; the write-back buffer lets stores touch only
            # the resolved way.
            counters.way_accesses += 1 if is_store else cfg.ways
        else:
            counters.cache_misses += 1
            counters.way_accesses += (1 if is_store else cfg.ways) + 1
        if install is not None:
            self.mab.install(install, result.way)


@fast_path(WayMemoDCache)
def way_memo_dcache_counters(
    cols: DataColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared sweep (pure derivation).

    Every access consults the MAB and every store is staged in the
    write buffer, MAB hit or not, so the coalescing count is the
    stream's own (:meth:`DataColumns.write_buffer_coalesced`).
    """
    counters = way_memo_counters(
        point, cols, shared, stores=cols.store_mask
    )
    cols.apply_load_store(counters)
    counters.notes["write_buffer_coalesced"] = (
        cols.write_buffer_coalesced(point.cache)
    )
    return counters

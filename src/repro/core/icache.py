"""Way-memoizing I-cache controller (paper Section 3.2, Figure 2).

Replays a :class:`~repro.sim.fetch.FetchStream` (one record per 8-byte
fetch-packet access) through a cache + MAB:

* **intra-cache-line sequential flow** — the fetch stays within the
  line of the previous access: no tag access and no MAB consult; the
  previously resolved way is reused (the classic optimisation of
  Panwar & Rennels [4], which the paper keeps).
* any other flow — inter-line sequential (PC + stride), taken branch
  (branch PC + offset) or indirect/link jump (register value + imm) —
  consults the MAB with exactly the inputs Figure 2's mux selects.
  MAB hit: 0 tags, 1 way.  MAB miss: full access (all tags, all ways)
  and the resolved way is installed.

The controller tracks the line address of the previous access to
classify intra- vs inter-line flow, mirroring the hardware's
"same-line" detector.

The MAB never changes what the cache does, so the design is batchable:
:func:`way_memo_icache_counters` derives the counters from the replay
engine's shared cache sweep through the same
:func:`~repro.core.mab.way_memo_counters` as the D-cache.
:meth:`WayMemoICache.process_reference` keeps the original object-API
implementation as the executable specification for the differential
tests.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_ICACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.core.mab import MAB, MABConfig, way_memo_counters
from repro.replay.columns import FetchColumns, SharedPass
from repro.replay.engine import Controller, DesignPoint, fast_path
from repro.sim.fetch import FetchKind, FetchStream


class WayMemoICache(Controller):
    """I-cache with intra-line tracking plus the paper's MAB.

    Parameters
    ----------
    cache_config:
        Cache geometry; defaults to the FR-V 32 kB 2-way I-cache.
    mab_config:
        MAB size; the paper evaluates 2x8, 2x16 (chosen) and 2x32.
    """

    def __init__(
        self,
        cache_config: CacheConfig = FRV_ICACHE,
        mab_config: MABConfig = MABConfig(2, 16),
        policy: str = "lru",
    ):
        self.cache_config = cache_config
        self.mab_config = mab_config
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        self.mab = MAB(mab_config, cache_config)
        if mab_config.consistency == "evict_hook":
            self.cache.add_eviction_listener(self.mab.invalidate_line)

    @classmethod
    def from_point(cls, point: DesignPoint) -> "WayMemoICache":
        return cls(point.cache, point.mab, point.policy)

    # ------------------------------------------------------------------
    # reference implementation (executable specification)
    # ------------------------------------------------------------------

    def process_reference(self, fetch: FetchStream) -> AccessCounters:
        """Replay via the original object-API path (spec for diff tests)."""
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        mab = self.mab
        line_mask = ~(cfg.line_bytes - 1) & 0xFFFFFFFF
        seq = int(FetchKind.SEQ)

        last_line = None  # line address of the previous access

        addrs = fetch.addr.tolist()
        kinds = fetch.kind.tolist()
        bases = fetch.base.tolist()
        disps = fetch.disp.tolist()

        for addr, kind, base, disp in zip(addrs, kinds, bases, disps):
            counters.accesses += 1
            line = addr & line_mask

            if kind == seq and line == last_line:
                counters.intra_line_hits += 1
                result = cache.access(addr)
                counters.cache_hits += 1
                counters.way_accesses += 1
                assert result.hit, "intra-line fetch must hit"
                last_line = line
                continue

            counters.mab_lookups += 1
            lookup = mab.lookup(base, disp)

            if lookup.bypass:
                counters.mab_bypasses += 1
                mab.on_bypass(lookup.set_index)
                self._full_access(counters, addr, install=None)
                last_line = line
                continue

            if lookup.hit:
                actual = cache.probe(addr)
                if actual is not None and actual == lookup.way:
                    counters.mab_hits += 1
                    result = cache.access(addr)
                    counters.cache_hits += 1
                    counters.way_accesses += 1
                    last_line = line
                    continue
                counters.stale_hits += 1

            self._full_access(counters, addr, install=lookup)
            last_line = line

        counters.notes["mab_label"] = self.mab_config.label
        return counters

    # ------------------------------------------------------------------

    def _full_access(self, counters, addr, install) -> None:
        cfg = self.cache_config
        result = self.cache.access(addr)
        counters.tag_accesses += cfg.ways
        if result.hit:
            counters.cache_hits += 1
            counters.way_accesses += cfg.ways
        else:
            counters.cache_misses += 1
            counters.way_accesses += cfg.ways + 1  # parallel read + refill
        if install is not None:
            self.mab.install(install, result.way)


@fast_path(WayMemoICache)
def way_memo_icache_counters(
    cols: FetchColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared sweep (pure derivation).

    Intra-line sequential fetches skip the MAB; every other fetch
    consults it (:func:`~repro.core.mab.way_memo_counters`).
    """
    config = point.cache
    intra = cols.intra_mask(config.offset_bits, config.index_bits)
    counters = way_memo_counters(point, cols, shared, skip=intra)
    counters.intra_line_hits = cols.n - counters.mab_lookups
    return counters

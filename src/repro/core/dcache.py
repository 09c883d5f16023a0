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

:meth:`WayMemoDCache.process_columns` is the fast path the replay
engine drives: it inlines the flat-state MAB and cache kernels into
one loop, verifies a MAB hit and performs the LRU touch in a *single*
tag comparison instead of the historical ``probe()`` + ``access()``
double scan, and accumulates counters in local ints.
:meth:`WayMemoDCache.process_reference` keeps the original
object-API implementation verbatim as the executable specification;
``tests/test_fastpath_differential.py`` asserts the two agree
counter-for-counter and state-for-state on every workload.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_DCACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.cache.write_buffer import WriteBuffer
from repro.core.mab import MAB, MABConfig
from repro.replay.columns import DataColumns
from repro.replay.engine import Controller
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

    name = "way-memo"

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

    # ------------------------------------------------------------------

    def process_columns(self, cols: DataColumns) -> AccessCounters:
        """Replay a pre-split columnar trace (fast engine).

        The MAB lookup/install rules and the cache scan are inlined
        into one flat loop over local bindings of the shared state
        (the MAB and cache objects stay authoritative: the loop
        mutates their lists/dicts in place and syncs the scalar
        counters afterwards).  The per-access columns — tag, set
        index, packed narrow-adder MAB key (paper Figure 3), store
        flag, effective address — depend only on the trace and the
        cache geometry, so they come pre-split (and shareable across
        architectures) from :mod:`repro.replay.columns`.
        ``process_reference`` is the readable specification this loop
        is differentially tested against.
        """
        counters = AccessCounters()
        cache = self.cache
        mab = self.mab

        # -- cache state, bound locally ---------------------------------
        nways = cache.ways
        way_range = range(nways)
        two_way = nways == 2
        ctags = cache._tags
        cdirty = cache._dirty
        lru = cache._lru
        lru2 = lru is not None and nways == 2
        policy_touch = cache.policy.touch
        policy_victim = cache.policy.victim
        listeners = cache._eviction_listeners
        c_hits = 0
        c_misses = 0
        c_evictions = 0
        c_writebacks = 0

        # -- MAB state, bound locally -----------------------------------
        nt, ns = mab._nt, mab._ns
        keys = mab._keys
        key_map = mab._key_map
        key_map_get = key_map.get
        idx_vals = mab._idx_vals
        idx_map = mab._idx_map
        idx_map_get = idx_map.get
        vmask = mab._vmask
        mab_ways = mab._ways
        tag_stamp = mab._tag_stamp
        idx_stamp = mab._idx_stamp
        stamp = mab._stamp

        wbuf_push = self.write_buffer.push

        # The narrow-adder reconstruction of (tag, set) is numerically
        # identical to the plain address split for every access (the
        # fuzz/differential suites assert this), so one shared column
        # set serves both the MAB and the cache scan.
        tags_l, sets_l = cols.cache_streams(
            cache.offset_bits, cache.index_bits
        )
        keys_l = cols.mab_keys(cache.offset_bits, cache.index_bits)
        stores = cols.writes()
        addrs = cols.addrs()

        mab_hits = 0
        mab_bypasses = 0
        stale_hits = 0
        tag_accesses = 0
        way_accesses = 0

        for key, tag, set_index, is_store, addr in zip(
            keys_l, tags_l, sets_l, stores, addrs
        ):
            install = key >= 0
            if not install:
                # Large displacement: MAB bypass + column clear rule.
                mab_bypasses += 1
                j = idx_map_get(set_index, -1)
                if j >= 0:
                    clear = ~(1 << j)
                    for i in range(nt):
                        vmask[i] &= clear
            else:
                te = key_map_get(key, -1)
                ie = idx_map_get(set_index, -1)
                if te >= 0 and ie >= 0 and vmask[te] >> ie & 1:
                    # MAB hit: touch both sides' LRU, then verify the
                    # memoized way and complete the cache hit in a
                    # single tag comparison (a tag lives in at most
                    # one way, so checking the memoized way is
                    # equivalent to the historical full probe).
                    tag_stamp[te] = stamp
                    idx_stamp[ie] = stamp + 1
                    stamp += 2
                    way = mab_ways[te][ie]
                    if ctags[set_index][way] == tag:
                        c_hits += 1
                        if lru2:
                            order = lru[set_index]
                            if order[1] != way:
                                order[0], order[1] = order[1], order[0]
                        elif lru is not None:
                            order = lru[set_index]
                            if order[-1] != way:
                                order.remove(way)
                                order.append(way)
                        else:
                            policy_touch(set_index, way)
                        if is_store:
                            cdirty[set_index][way] = True
                            wbuf_push(addr)
                        mab_hits += 1
                        way_accesses += 1  # memoized way only
                        continue
                    # Stale memoization: functionally this would return
                    # the wrong line.  Count it; repair below.
                    stale_hits += 1

            # -- full access: all tags compared (inline cache scan) -----
            if is_store:
                wbuf_push(addr)
            row = ctags[set_index]
            if two_way:
                if row[0] == tag:
                    hit_way = 0
                elif row[1] == tag:
                    hit_way = 1
                else:
                    hit_way = -1
            else:
                hit_way = -1
                for w in way_range:
                    if row[w] == tag:
                        hit_way = w
                        break
            tag_accesses += nways
            if hit_way >= 0:
                c_hits += 1
                way = hit_way
                if lru2:
                    order = lru[set_index]
                    if order[1] != way:
                        order[0], order[1] = order[1], order[0]
                elif lru is not None:
                    order = lru[set_index]
                    if order[-1] != way:
                        order.remove(way)
                        order.append(way)
                else:
                    policy_touch(set_index, way)
                if is_store:
                    cdirty[set_index][way] = True
                way_accesses += 1 if is_store else nways
            else:
                c_misses += 1
                if lru is not None:
                    order = lru[set_index]
                    way = order[0]
                else:
                    way = policy_victim(set_index)
                    order = None
                evicted = row[way]
                dirty_row = cdirty[set_index]
                if evicted >= 0:
                    c_evictions += 1
                    if dirty_row[way]:
                        c_writebacks += 1
                    if listeners:
                        for listener in listeners:
                            listener(evicted, set_index)
                row[way] = tag
                dirty_row[way] = is_store
                if lru2:
                    order[0], order[1] = order[1], order[0]
                elif lru is not None:
                    if order[-1] != way:
                        order.remove(way)
                        order.append(way)
                else:
                    policy_touch(set_index, way)
                way_accesses += (1 if is_store else nways) + 1

            # -- MAB install: the four cases of Section 3.3 -------------
            if install:
                if te < 0:
                    if nt == 2:
                        te = 0 if tag_stamp[0] < tag_stamp[1] else 1
                    else:
                        best = tag_stamp[0]
                        te = 0
                        for slot in range(1, nt):
                            if tag_stamp[slot] < best:
                                best = tag_stamp[slot]
                                te = slot
                    old = keys[te]
                    if old >= 0:
                        del key_map[old]
                    keys[te] = key
                    key_map[key] = te
                    vmask[te] = 0
                if ie < 0:
                    best = idx_stamp[0]
                    ie = 0
                    for slot in range(1, ns):
                        if idx_stamp[slot] < best:
                            best = idx_stamp[slot]
                            ie = slot
                    old = idx_vals[ie]
                    if old >= 0:
                        del idx_map[old]
                    idx_vals[ie] = set_index
                    idx_map[set_index] = ie
                    clear = ~(1 << ie)
                    for i in range(nt):
                        vmask[i] &= clear
                vmask[te] |= 1 << ie
                mab_ways[te][ie] = way
                tag_stamp[te] = stamp
                idx_stamp[ie] = stamp + 1
                stamp += 2

        # -- sync shared counters back ----------------------------------
        n = len(keys_l)
        mab._stamp = stamp
        mab.lookups += n
        # A stale hit still matched in the MAB (the reference
        # lookup path counts it), it just failed cache verification.
        mab.hits += mab_hits + stale_hits
        mab.bypasses += mab_bypasses
        cache.hits += c_hits
        cache.misses += c_misses
        cache.evictions += c_evictions
        cache.writebacks += c_writebacks

        num_stores = cols.num_stores
        counters.accesses = n
        counters.loads = n - num_stores
        counters.stores = num_stores
        counters.mab_lookups = n
        counters.mab_hits = mab_hits
        counters.mab_bypasses = mab_bypasses
        counters.stale_hits = stale_hits
        counters.cache_hits = c_hits
        counters.cache_misses = c_misses
        counters.tag_accesses = tag_accesses
        counters.way_accesses = way_accesses
        counters.notes["mab_label"] = self.mab_config.label
        counters.notes["write_buffer_coalesced"] = self.write_buffer.coalesced
        return counters

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
                    result = cache.access(addr, write=is_store)
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
        result = self.cache.access(addr, write=is_store)
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

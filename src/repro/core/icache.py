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

:meth:`WayMemoICache.process_columns` is the fast path the replay
engine drives (flat kernels, single tag scan on MAB hits, pre-split
columns, local counters);
:meth:`WayMemoICache.process_reference` keeps the original object-API
implementation as the executable specification for the differential
tests.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_ICACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.core.mab import MAB, MABConfig
from repro.replay.columns import FetchColumns
from repro.replay.engine import Controller
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

    name = "way-memo"

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

    # ------------------------------------------------------------------

    def process_columns(self, cols: FetchColumns) -> AccessCounters:
        """Replay a pre-split columnar fetch stream (fast engine).

        Same construction as :meth:`WayMemoDCache.process_columns`:
        the MAB rules and the cache scan are inlined into one flat
        loop over local bindings of the shared state, fed by the
        pre-split (and cross-architecture shareable) columns from
        :mod:`repro.replay.columns`.  ``process_reference`` is the
        readable specification this loop is differentially tested
        against.
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
        lru2 = lru is not None and two_way
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

        seq = int(FetchKind.SEQ)

        # -- per-access inputs, pre-split -------------------------------
        # The narrow-adder reconstruction of (tag, set) is numerically
        # identical to the plain address split for every access (the
        # fuzz/differential suites assert this), so the same column
        # pair serves the intra-line path, the MAB verify and the full
        # cache scan; line numbers share the geometry's offset bits.
        offset_bits = cache.offset_bits
        index_bits = cache.index_bits
        kinds = cols.kinds()
        lines = cols.lines(offset_bits, index_bits)
        tags_l, sets_l = cols.cache_streams(offset_bits, index_bits)
        keys_l = cols.mab_keys(offset_bits, index_bits)

        last_line = -1  # line number of the previous access

        intra_line_hits = 0
        mab_lookups = 0
        mab_hits = 0
        mab_bypasses = 0
        stale_hits = 0
        tag_accesses = 0
        way_accesses = 0

        for i in range(len(kinds)):
            line = lines[i]

            if kinds[i] == seq and line == last_line:
                # Intra-cache-line sequential flow: way known from the
                # previous access, no tag or MAB activity [3, 4, 10].
                # The line is guaranteed resident, so this is a plain
                # recency touch on the hitting way.
                intra_line_hits += 1
                tag = tags_l[i]
                set_index = sets_l[i]
                row = ctags[set_index]
                if two_way:
                    if row[0] == tag:
                        way = 0
                    elif row[1] == tag:
                        way = 1
                    else:
                        raise AssertionError("intra-line fetch must hit")
                else:
                    way = -1
                    for w in way_range:
                        if row[w] == tag:
                            way = w
                            break
                    if way < 0:
                        raise AssertionError("intra-line fetch must hit")
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
                way_accesses += 1
                continue

            mab_lookups += 1
            key = keys_l[i]
            tag = tags_l[i]
            set_index = sets_l[i]
            install = key >= 0
            if not install:
                # Large displacement: MAB bypass + column clear rule.
                mab_bypasses += 1
                j = idx_map_get(set_index, -1)
                if j >= 0:
                    clear = ~(1 << j)
                    for k in range(nt):
                        vmask[k] &= clear
            else:
                te = key_map_get(key, -1)
                ie = idx_map_get(set_index, -1)
                if te >= 0 and ie >= 0 and vmask[te] >> ie & 1:
                    # MAB hit: touch both sides' LRU, then verify the
                    # memoized way and complete the cache hit in a
                    # single tag comparison.
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
                        mab_hits += 1
                        way_accesses += 1
                        last_line = line
                        continue
                    stale_hits += 1

            # -- full access: all tags compared (inline cache scan) -----
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
                way_accesses += nways
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
                dirty_row[way] = False
                if lru2:
                    order[0], order[1] = order[1], order[0]
                elif lru is not None:
                    if order[-1] != way:
                        order.remove(way)
                        order.append(way)
                else:
                    policy_touch(set_index, way)
                way_accesses += nways + 1  # parallel read + refill

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
                    for k in range(nt):
                        vmask[k] &= clear
                vmask[te] |= 1 << ie
                mab_ways[te][ie] = way
                tag_stamp[te] = stamp
                idx_stamp[ie] = stamp + 1
                stamp += 2
            last_line = line

        # -- sync shared counters back ----------------------------------
        mab._stamp = stamp
        mab.lookups += mab_lookups
        # A stale hit still matched in the MAB (the reference
        # lookup path counts it), it just failed cache verification.
        mab.hits += mab_hits + stale_hits
        mab.bypasses += mab_bypasses
        cache.hits += c_hits
        cache.misses += c_misses
        cache.evictions += c_evictions
        cache.writebacks += c_writebacks

        counters.accesses = len(kinds)
        counters.intra_line_hits = intra_line_hits
        counters.mab_lookups = mab_lookups
        counters.mab_hits = mab_hits
        counters.mab_bypasses = mab_bypasses
        counters.stale_hits = stale_hits
        counters.cache_hits = c_hits
        counters.cache_misses = c_misses
        counters.tag_accesses = tag_accesses
        counters.way_accesses = way_accesses
        counters.notes["mab_label"] = self.mab_config.label
        return counters

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

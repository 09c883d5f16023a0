"""Kin, Gupta & Mangione-Smith [6]: the filter cache (L0).

A tiny cache sits between the core and L1.  L0 hits are cheap; L0
misses pay one extra cycle plus a full L1 access.  This is the classic
energy/performance trade the paper's zero-penalty technique is set
against.  The L0 is modelled as a small fully-associative cache of L1
line-size lines, kept *inclusive* in L1: when L1 evicts a line the L0
copy is invalidated through the eviction listener, so an L0 hit always
refers to an L1-resident line (without the listener a line could
linger in the L0 after its L1 eviction, and a write-through on such a
stale L0 hit would silently miss-fill L1 with uncharged energy — a
consistency bug the fast/reference differential matrix exposed).

:meth:`_FilterCache.process_columns` is the fast path the replay engine
drives, fed from the shared columnar pre-split
(:mod:`repro.replay.columns`).  L0 hits skip L1 entirely, so this
design cannot ride the shared batch sweep — the L1 access subsequence
depends on the L0 classification.  But the
coupling in the *other* direction is almost nil: the L0 (an LRU list
over lines) evolves independently of L1 except when an L1 eviction
invalidates an L0-resident line through the inclusion listener, which
requires L1 to evict a line out of the L0's tiny recent working set —
measured at ~6 events per 20k accesses on the benchmark traces.  The
replay therefore runs *optimistically*: per chunk it classifies every
access assuming no invalidations land (a vectorized candidate filter
proves almost all accesses are L0 misses outright; the few possible
hits are resolved by a short exact Python walk), feeds the whole
derived L1 subsequence — run-head misses plus write-through stores —
through one :meth:`SetAssociativeCache.access_fast_batch` with the
inclusion listener detached (so a 2-way LRU L1 takes the shared
vectorized kernel), and then *validates* the assumption against the
packed eviction results: an eviction whose line was possibly
L0-resident at eviction time means the classification may diverge
there, so the chunk's L1 snapshot is restored, the proven prefix is
committed, and replay resumes just past the divergence (degrading to
the scalar per-head walk if a chunk keeps misbehaving, as tiny
thrashing geometries do).  The per-access object-API loop is retained
as the executable specification for the differential tests.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import (
    _F_EVICTED,
    _F_HIT,
    _F_TAG_SHIFT,
    SetAssociativeCache,
)
from repro.cache.config import CacheConfig, FRV_DCACHE, FRV_ICACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.engine import Controller
from repro.sim.fetch import FetchStream
from repro.sim.trace import DataTrace

#: Default filter cache size: 256 B of 32 B lines, fully associative.
DEFAULT_L0_LINES = 8

#: Accesses per optimistic replay chunk (bounds the work redone when a
#: chunk's no-invalidation assumption fails).
_CHUNK = 8192
#: Optimistic restarts tolerated per chunk before the scalar walk.
_MAX_RESTARTS = 4


class _FilterCache(Controller):
    """Shared L0 + L1 machinery."""

    def __init__(self, cache_config: CacheConfig, l0_lines: int,
                 policy: str):
        if l0_lines < 1:
            raise ValueError("filter cache needs at least one line")
        self.cache_config = cache_config
        self.l0_lines = l0_lines
        self.cache = SetAssociativeCache(
            cache_config,
            make_policy(policy, cache_config.sets, cache_config.ways),
        )
        self._l0: list = []  # line addresses, MRU at back
        # L0 is inclusive in L1: evicting the L1 line kills the copy.
        self.cache.add_eviction_listener(self._on_l1_evict)

    def _on_l1_evict(self, tag: int, set_index: int) -> None:
        line = self.cache_config.join(tag, set_index)
        if line in self._l0:
            self._l0.remove(line)

    # -- fast engine ----------------------------------------------------

    def process_columns(self, cols) -> AccessCounters:
        """Replay from the shared columnar pre-split (fast engine).

        Chunked optimistic replay (see the module docstring): each
        chunk is classified assuming no L1-eviction invalidation lands
        in an L0-resident line, the implied L1 subsequence runs
        through one batch kernel call, and the assumption is validated
        against the packed eviction results afterwards.  Failed chunks
        restore the L1 snapshot, commit their proven prefix and
        resume; chunks that keep failing (tiny thrashing geometries)
        fall back to the exact scalar per-head walk.
        """
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        n = cols.n
        counters.accesses = n
        counters.aux_accesses = n  # L0 probe (cheap)
        cols.apply_load_store(counters)
        if n == 0:
            return counters

        lines64 = cols.addr64 & ~np.int64(cfg.line_bytes - 1)
        store_mask = cols.store_mask
        if store_mask is None or not counters.stores:
            store_mask = None

        # l0_misses, cache_misses, way_accesses
        acc = [0, 0, 0]
        if cache._lru is None:
            # Snapshots cover only LRU replacement state; other
            # policies take the exact scalar walk end to end.
            self._walk_span_scalar(cols, lines64, store_mask, 0, n, acc)
        else:
            tags_np = np.asarray(
                cols.tags_array(cache.offset_bits, cache.index_bits)
            )
            sets_np = np.asarray(
                cols.sets_array(cache.offset_bits, cache.index_bits)
            )
            pos = 0
            while pos < n:
                end = min(pos + _CHUNK, n)
                restarts = 0
                while pos < end:
                    pos, clean = self._optimistic_span(
                        cols, lines64, store_mask, tags_np, sets_np,
                        pos, end, acc,
                    )
                    if not clean:
                        restarts += 1
                        if restarts > _MAX_RESTARTS and pos < end:
                            self._walk_span_scalar(
                                cols, lines64, store_mask, pos, end, acc
                            )
                            pos = end

        l0_misses, cache_misses, way_accesses = acc
        counters.cache_hits = n - cache_misses
        counters.cache_misses = cache_misses
        counters.tag_accesses = cache.ways * l0_misses
        counters.way_accesses = way_accesses
        counters.extra_cycles = l0_misses
        return counters

    # -- optimistic chunk machinery -------------------------------------

    def _snapshot_l1(self):
        cache = self.cache
        return (
            [row[:] for row in cache._tags],
            [row[:] for row in cache._dirty],
            [row[:] for row in cache._lru],
            cache.hits, cache.misses, cache.evictions, cache.writebacks,
        )

    def _restore_l1(self, snap) -> None:
        cache = self.cache
        tags, dirty, lru, hits, misses, evictions, writebacks = snap
        for row, saved in zip(cache._tags, tags):
            row[:] = saved
        for row, saved in zip(cache._dirty, dirty):
            row[:] = saved
        for row, saved in zip(cache._lru, lru):
            row[:] = saved
        cache.hits = hits
        cache.misses = misses
        cache.evictions = evictions
        cache.writebacks = writebacks

    def _accumulate_packed(self, pk, pfull, pwrites, acc) -> None:
        """Fold a committed batch's packed results into the counters."""
        if ((~pfull) & ((pk & _F_HIT) == 0)).any():
            raise AssertionError(
                "write-through must hit (L0 inclusive in L1)"
            )
        nways = self.cache.ways
        full_pk = pk[pfull]
        hit = (full_pk & _F_HIT) != 0
        ways = np.where(pwrites[pfull], 1, nways) + np.where(hit, 0, 1)
        acc[0] += len(full_pk)
        acc[1] += int((~hit).sum())
        acc[2] += int(ways.sum())

    @staticmethod
    def _replay_l0(start, head_list, hit_ks, upto, l0_lines):
        """L0 content after heads ``0..upto`` given their classification.

        ``hit_ks`` are the head indices classified as L0 hits; every
        other head is a miss-append.  Misses between hits batch into
        one extend + trim (pops always take the front, so content and
        order survive bulk application).
        """
        l0 = list(start)
        prev = 0
        for k in hit_ks:
            if k > upto:
                break
            seg = head_list[prev:k]
            if seg:
                l0.extend(seg)
                del l0[:-l0_lines]
            line = head_list[k]
            l0.remove(line)
            l0.append(line)
            prev = k + 1
        seg = head_list[prev:upto + 1]
        if seg:
            l0.extend(seg)
            del l0[:-l0_lines]
        return l0

    def _batch_l1(self, tags, sets, writes) -> np.ndarray:
        """Run L1 accesses through the shared sweep kernel.

        The inclusion listener is detached for the batch: kills are
        read back from the packed eviction bits, and a listener-free
        2-way LRU L1 takes the vectorized kernel.
        """
        cache = self.cache
        listeners = cache._eviction_listeners
        cache._eviction_listeners = []
        try:
            return cache.access_fast_batch(tags, sets, writes)
        finally:
            cache._eviction_listeners = listeners

    def _optimistic_span(self, cols, lines64, store_mask, tags_np,
                         sets_np, a, b, acc):
        """Optimistically replay accesses ``[a, b)``.

        Returns ``(resume, clean)``: ``clean`` means the whole span
        committed; otherwise the proven prefix committed and replay
        must resume at ``resume`` (always ``> a``).
        """
        cache = self.cache
        l0_lines = self.l0_lines
        c = b - a
        cl = lines64[a:b]

        head = np.empty(c, dtype=bool)
        head[0] = a == 0 or cl[0] != lines64[a - 1]
        if c > 1:
            np.not_equal(cl[1:], cl[:-1], out=head[1:])
        hpos = np.flatnonzero(head)

        # Previous occurrence (local index) of each access's line, via
        # one stable sort: equal lines land adjacent in position
        # order.  The offset bits of a line address are zero, so the
        # shifted key preserves the order and usually fits a 32-bit
        # radix sort.
        ckey = cl >> cache.offset_bits
        if 0 <= int(ckey.min()) and int(ckey.max()) < (1 << 32):
            order = np.argsort(ckey.astype(np.uint32), kind="stable")
        else:
            order = np.argsort(cl, kind="stable")
        scl = cl[order]
        prev = np.full(c, -1, dtype=np.int64)
        if c > 1:
            same = scl[1:] == scl[:-1]
            prev[order[1:][same]] = order[:-1][same]

        start_l0 = self._l0
        # Once warm the simulated L0 never shrinks, so ``l0_lines``
        # misses after a line's last touch guarantee it was popped; a
        # cold/killed L0 defers pops, doubling the safe bound.
        bound = l0_lines if len(start_l0) >= l0_lines else 2 * l0_lines
        in_init = np.zeros(c, dtype=bool)
        for line in start_l0:
            in_init |= cl == line
        has_prev = prev >= 0
        reachable = head & (has_prev | in_init)

        # Candidate filter: a head can only be an L0 hit if fewer than
        # ``bound`` definite misses separate it from its line's last
        # touch (entry at -1 for start-resident lines).  Iterate the
        # definite-miss set to a (sound, monotone) fixpoint.
        sure = np.zeros(c, dtype=bool)
        cand = reachable
        for _ in range(4):
            cum = np.zeros(c + 1, dtype=np.int64)
            np.cumsum(sure, out=cum[1:])
            gap = cum[:c] - cum[prev + 1]
            new_cand = reachable & (gap < bound)
            new_sure = head & ~new_cand
            if np.array_equal(new_sure, sure):
                cand = new_cand
                break
            sure = new_sure
            cand = new_cand

        # Exact resolution: bulk-apply the definite misses, test only
        # the candidates against the live list.
        head_list = cl[hpos].tolist()
        l0 = list(start_l0)
        hit_ks: list = []
        walked = 0
        for k in np.flatnonzero(cand[hpos]).tolist():
            seg = head_list[walked:k]
            if seg:
                l0.extend(seg)
                del l0[:-l0_lines]
            line = head_list[k]
            if line in l0:
                l0.remove(line)
                l0.append(line)
                hit_ks.append(k)
            else:
                l0.append(line)
                del l0[:-l0_lines]
            walked = k + 1
        seg = head_list[walked:]
        if seg:
            l0.extend(seg)
            del l0[:-l0_lines]

        miss_ind = np.zeros(c, dtype=bool)
        miss_ind[hpos] = True
        if hit_ks:
            miss_ind[hpos[np.array(hit_ks)]] = False

        # L1 subsequence: run-head misses plus write-through stores.
        if store_mask is not None:
            st = store_mask[a:b]
            pend_mask = miss_ind | (st & ~miss_ind)
        else:
            st = None
            pend_mask = miss_ind
        ppos = np.flatnonzero(pend_mask)
        pfull = miss_ind[ppos]
        if st is not None:
            pwrites = np.where(pfull, st[ppos], True)
        else:
            pwrites = np.zeros(len(ppos), dtype=bool)
        gpos = ppos + a
        ptags = tags_np[gpos]
        psets = sets_np[gpos]

        snap = self._snapshot_l1()
        pk = self._batch_l1(ptags, psets, pwrites)

        # Validate: an eviction whose line may have been L0-resident at
        # eviction time breaks the no-invalidation assumption.
        ev = np.flatnonzero(pk & _F_EVICTED)
        flagged = None
        if len(ev):
            ev_pos = ppos[ev]
            ev_line = (
                ((pk[ev] >> _F_TAG_SHIFT) << cache.tag_shift)
                | (psets[ev].astype(np.int64) << cache.offset_bits)
            )
            miss_cum = np.zeros(c + 1, dtype=np.int64)
            np.cumsum(miss_ind, out=miss_cum[1:])
            # Last touch of each evicted line strictly before ev_pos.
            bnd = np.empty(c, dtype=bool)
            bnd[0] = True
            if c > 1:
                bnd[1:] = ~same
            uniq = scl[bnd]
            ranked = np.cumsum(bnd) - 1
            # rank*c + pos fits 32 bits for any sane chunk size, and
            # int32 binary searches are measurably cheaper.
            keys = (ranked * c + order).astype(np.int32)
            ev_rank = np.searchsorted(uniq, ev_line)
            in_chunk = (ev_rank < len(uniq)) & (
                uniq[np.minimum(ev_rank, len(uniq) - 1)] == ev_line
            )
            query = (
                np.where(in_chunk, ev_rank, 0) * c + ev_pos
            ).astype(np.int32)
            loc = np.searchsorted(keys, query)
            near = keys[np.maximum(loc - 1, 0)]
            touched = (
                (loc > 0)
                & in_chunk
                & (near // c == np.where(in_chunk, ev_rank, -1))
            )
            last_touch = np.where(touched, near % c, -1)
            ev_in_init = np.zeros(len(ev), dtype=bool)
            for line in start_l0:
                ev_in_init |= ev_line == line
            ev_gap = miss_cum[ev_pos] - miss_cum[last_touch + 1]
            ev_reach = touched | ev_in_init
            maybe = ev_reach & (ev_gap < bound)
            if maybe.any():
                # Kills defer pops: every applied kill extends lines'
                # survival by one miss, so widen the window until the
                # flagged set stops growing (events before the first
                # one are exact no-kill territory and stay unflagged).
                first = int(np.flatnonzero(maybe)[0])
                kills = int(maybe.sum())
                for _ in range(4):
                    wide = ev_reach & (ev_gap < bound + kills)
                    wide[:first] = False
                    wide[first] = True
                    grown = int(wide.sum())
                    if grown == kills:
                        break
                    kills = grown
                else:
                    wide = ev_reach.copy()
                    wide[:first] = False
                    wide[first] = True
                    kills = int(wide.sum())
                flagged = np.flatnonzero(wide)

        if flagged is None:
            self._accumulate_packed(pk, pfull, pwrites, acc)
            self._l0 = l0
            return b, True

        # Possible divergence: re-simulate the L0 alone (no L1 calls)
        # from the first possible kill with the recorded invalidations
        # applied, checking every head that could plausibly hit under
        # the widened window.  If no classification flips, the batch
        # already on the books is exact and the span still commits.
        kill_hs = np.searchsorted(hpos, ev_pos[flagged])
        kill_lines = ev_line[flagged].tolist()
        hb0 = int(kill_hs[0])
        gap2 = miss_cum[hpos] - miss_cum[
            np.where(hpos > 0, prev[hpos], -1) + 1
        ]
        cand2 = np.flatnonzero(
            (reachable[hpos])
            & (gap2 < bound + kills)
            & (hpos > hpos[hb0])
        )
        l0_resim = self._replay_l0(start_l0, head_list, hit_ks,
                                   hb0 - 1, l0_lines)
        hit_set = set(hit_ks)
        flip, l0_resim = self._resim_kills(
            head_list, hit_set, cand2.tolist(),
            kill_hs.tolist(), kill_lines, l0_resim, hb0, l0_lines,
        )
        if flip is None:
            self._accumulate_packed(pk, pfull, pwrites, acc)
            self._l0 = l0_resim
            return b, True

        # Genuine divergence at head ``flip``: restore, re-apply the
        # proven prefix (everything before the flipped head), and
        # resume there — ``l0_resim`` is exact up to that point.
        resume = int(hpos[flip])
        self._restore_l1(snap)
        keep = int(np.searchsorted(ppos, resume))
        self._batch_l1(ptags[:keep], psets[:keep], pwrites[:keep])
        self._accumulate_packed(pk[:keep], pfull[:keep], pwrites[:keep],
                                acc)
        self._l0 = l0_resim
        return a + resume, False

    @staticmethod
    def _resim_kills(head_list, hit_set, cand2, kill_hs, kill_lines,
                     l0, hb0, l0_lines):
        """Exact L0 walk from the first kill with invalidations applied.

        Walks only the heads that could plausibly hit (``cand2``) plus
        the kill sites, bulk-applying the definite misses in between.
        Returns ``(flip, l0)``: ``flip`` is the first head index whose
        hit/miss outcome differs from the no-kill classification (the
        l0 returned is then exact *up to* that head), or None when the
        whole span re-simulates identically (l0 is the exact final
        state).
        """
        events: dict = {}
        for k in cand2:
            events[k] = None
        for k, line in zip(kill_hs, kill_lines):
            events[k] = line
        prev = hb0
        # Head hb0 itself: an orig-miss whose access evicted; apply
        # the kill between the (already consistent) membership check
        # and the fill, like the scalar loop does.
        first_kill = events.pop(hb0, None)
        if first_kill is not None and first_kill in l0:
            l0.remove(first_kill)
        l0.append(head_list[hb0])
        del l0[:-l0_lines]
        prev = hb0 + 1
        for k in sorted(events):
            seg = head_list[prev:k]
            if seg:
                l0.extend(seg)
                del l0[:-l0_lines]
            line = head_list[k]
            # Membership check precedes the kill in scalar order.
            present = line in l0
            if present != (k in hit_set):
                return k, l0
            if present:
                l0.remove(line)
                l0.append(line)
            else:
                kill = events[k]
                if kill is not None and kill in l0:
                    l0.remove(kill)
                l0.append(line)
                del l0[:-l0_lines]
            prev = k + 1
        seg = head_list[prev:]
        if seg:
            l0.extend(seg)
            del l0[:-l0_lines]
        return None, l0

    # -- exact scalar walk (fallback engine) ----------------------------

    def _walk_span_scalar(self, cols, lines64, store_mask, a, b,
                          acc) -> None:
        """Per-head walk of ``[a, b)`` over the live ``_l0`` — exact
        under any replacement policy and any invalidation pattern."""
        cache = self.cache
        nways = cache.ways
        n = b - a
        head = np.empty(n, dtype=bool)
        head[0] = a == 0 or lines64[a] != lines64[a - 1]
        if n > 1:
            np.not_equal(lines64[a + 1:b], lines64[a:b - 1], out=head[1:])
        head_idx = np.flatnonzero(head) + a
        m = len(head_idx)
        head_pos = head_idx.tolist()
        head_lines = lines64[head_idx].tolist()
        # Span-local tag and set lists, indexed by ``position - a``.
        tag_list = cols.tags_array(
            cache.offset_bits, cache.index_bits
        )[a:b].tolist()
        set_list = cols.sets_array(
            cache.offset_bits, cache.index_bits
        )[a:b].tolist()

        if store_mask is not None:
            span_stores = np.flatnonzero(store_mask[a:b])
            store_pos = (span_stores + a).tolist()
            head_store = store_mask[head_idx].tolist()
        else:
            store_pos = []
            head_store = [False] * m
        n_stores = len(store_pos)

        access_fast = cache.access_fast
        l0 = self._l0
        l0_lines = self.l0_lines

        def write_through(p):
            # Write-through to L1 state so dirtiness is tracked; the L0
            # is inclusive in L1, so it must hit (and hits never evict).
            packed = access_fast(tag_list[p - a], set_list[p - a], True)
            if not packed & _F_HIT:
                raise AssertionError(
                    "write-through must hit (L0 inclusive in L1)"
                )

        sp = 0  # pointer into the ordered store positions
        l0_misses = 0
        cache_misses = 0
        way_accesses = 0

        for k in range(m):
            pos = head_pos[k]
            line = head_lines[k]
            write = head_store[k]
            if line in l0:
                l0.remove(line)
                l0.append(line)
                if write:
                    write_through(pos)
            else:
                l0_misses += 1
                packed_one = access_fast(
                    tag_list[pos - a], set_list[pos - a], write
                )
                if packed_one & 1:
                    way_accesses += 1 if write else nways
                else:
                    cache_misses += 1
                    way_accesses += (1 if write else nways) + 1
                l0.append(line)
                if len(l0) > l0_lines:
                    l0.pop(0)

            # Write-throughs inside the run tail (all L0 hits).
            if sp < n_stores:
                end = head_pos[k + 1] if k + 1 < m else b
                while sp < n_stores and store_pos[sp] < end:
                    p = store_pos[sp]
                    if p > pos:
                        write_through(p)
                    sp += 1

        acc[0] += l0_misses
        acc[1] += cache_misses
        acc[2] += way_accesses

    # -- executable specification ---------------------------------------

    def _access(self, counters: AccessCounters, addr: int,
                write: bool = False) -> None:
        cfg = self.cache_config
        line = cfg.line_addr(addr)
        counters.aux_accesses += 1  # L0 probe (cheap)
        if line in self._l0:
            self._l0.remove(line)
            self._l0.append(line)
            counters.cache_hits += 1
            if write:
                # Write-through to L1 state so dirtiness is tracked.
                self.cache.access(addr, write=True)
            return

        # L0 miss: one stall cycle, then the full L1 access.
        counters.extra_cycles += 1
        result = self.cache.access(addr, write=write)
        counters.tag_accesses += cfg.ways
        if result.hit:
            counters.cache_hits += 1
            counters.way_accesses += 1 if write else cfg.ways
        else:
            counters.cache_misses += 1
            counters.way_accesses += (1 if write else cfg.ways) + 1
        self._l0.append(line)
        if len(self._l0) > self.l0_lines:
            self._l0.pop(0)


class FilterCacheDCache(_FilterCache):
    """Filter cache in front of the D-cache."""

    name = "filter-cache"

    def __init__(self, cache_config: CacheConfig = FRV_DCACHE,
                 l0_lines: int = DEFAULT_L0_LINES, policy: str = "lru"):
        super().__init__(cache_config, l0_lines, policy)

    def process_reference(self, trace: DataTrace) -> AccessCounters:
        counters = AccessCounters()
        for base, disp, is_store in zip(
            trace.base.tolist(), trace.disp.tolist(), trace.store.tolist()
        ):
            counters.accesses += 1
            if is_store:
                counters.stores += 1
            else:
                counters.loads += 1
            self._access(counters, (base + disp) & 0xFFFFFFFF, is_store)
        return counters


class FilterCacheICache(_FilterCache):
    """Filter cache in front of the I-cache."""

    name = "filter-cache"

    def __init__(self, cache_config: CacheConfig = FRV_ICACHE,
                 l0_lines: int = DEFAULT_L0_LINES, policy: str = "lru"):
        super().__init__(cache_config, l0_lines, policy)

    def process_reference(self, fetch: FetchStream) -> AccessCounters:
        counters = AccessCounters()
        for addr in fetch.addr.tolist():
            counters.accesses += 1
            self._access(counters, addr)
        return counters

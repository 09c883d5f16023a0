"""Ma, Zhang & Asanovic [11]: link-based way memoization.

The closest prior art to the paper's MAB: each I-cache line is
augmented with a *sequential link* (valid bit + way of the line
holding the next sequential address) and a *branch link* (valid bit +
way of the last taken-branch target from this line).  A valid link
skips the tag search entirely; invalid links fall back to a full
access and are learned.

The paper's two criticisms, both visible in this model:

* the links add storage to every cache line and their bits are read
  on every access (``aux_accesses`` charges that energy);
* a replacement must invalidate every link *pointing at* the evicted
  line, which needs extra machinery — modelled here with an exact
  reverse index standing in for their invalidation hardware (this is
  generous to [11]: sloppier hardware would lose more links).

Links live at line granularity (one sequential + one branch link per
line); lines containing several distinct taken branches thrash their
branch link, which is the structural disadvantage relative to the
MAB's decoupled address table.

:meth:`process_reference` keeps the object-API loop over the
``_links``/``_reverse`` dictionaries as the executable specification.

:func:`ma_links_counters` is the fast path: the cache sees
exactly one access per fetch on every path (a confirmed link hit is
state-equivalent to a hitting access), so the replay engine's shared
batch sweep serves this design too, and link validity is *derived*
from its results without replaying the link tables at all.  A link
consult at access ``i`` hits iff the most recent prior consult ``m``
with the same (source line, kind) key targeted the same line and
neither that target line nor the source line was evicted strictly
between ``m`` and ``i`` — :func:`~repro.replay.columns.repeat_pairs`
of the consult keys pairs each consult with its predecessor (as it
pairs a way-predicting access with its set's previous one), and
:meth:`~repro.replay.columns.SharedPass.evicted_between` answers the
eviction windows from the shared pass's eviction events.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, FRV_ICACHE
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import FetchColumns, SharedPass, repeat_pairs
from repro.replay.engine import Controller, DesignPoint, fast_path
from repro.sim.fetch import FetchKind, FetchStream

#: Link kinds.
_SEQ, _BRANCH = 0, 1


class MaLinksICache(Controller):
    """I-cache with per-line sequential and branch way links."""

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
        # (line_addr, kind) -> (target_line_addr, target_way)
        self._links: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # target_line_addr -> set of link keys pointing at it
        self._reverse: Dict[int, Set[Tuple[int, int]]] = {}
        self.cache.add_eviction_listener(self._on_evict)

    # ------------------------------------------------------------------

    def _on_evict(self, tag: int, set_index: int) -> None:
        """Invalidate links pointing at (and owned by) the dead line."""
        line = self.cache_config.join(tag, set_index)
        for key in self._reverse.pop(line, set()):
            self._links.pop(key, None)
        # Links stored WITH the line die with it too.
        for kind in (_SEQ, _BRANCH):
            target = self._links.pop((line, kind), None)
            if target is not None:
                keys = self._reverse.get(target[0])
                if keys is not None:
                    keys.discard((line, kind))

    def _set_link(self, source_line: int, kind: int,
                  target_line: int, way: int) -> None:
        old = self._links.get((source_line, kind))
        if old is not None:
            keys = self._reverse.get(old[0])
            if keys is not None:
                keys.discard((source_line, kind))
        self._links[(source_line, kind)] = (target_line, way)
        self._reverse.setdefault(target_line, set()).add(
            (source_line, kind)
        )

    # ------------------------------------------------------------------
    # reference implementation (executable specification)
    # ------------------------------------------------------------------

    def process_reference(self, fetch: FetchStream) -> AccessCounters:
        """Replay via the original object-API path (spec for diff tests)."""
        counters = AccessCounters()
        cfg = self.cache_config
        cache = self.cache
        line_mask = ~(cfg.line_bytes - 1) & 0xFFFFFFFF
        seq = int(FetchKind.SEQ)
        branch = int(FetchKind.BRANCH)

        last_line: Optional[int] = None

        for addr, kind in zip(fetch.addr.tolist(), fetch.kind.tolist()):
            counters.accesses += 1
            counters.aux_accesses += 1  # link bits read with the line
            line = addr & line_mask

            if kind == seq and line == last_line:
                # Intra-line sequential: way known, free ([3, 4, 10],
                # which [11] also builds upon).
                counters.intra_line_hits += 1
                result = cache.access(addr)
                counters.cache_hits += 1
                counters.way_accesses += 1
                last_line = line
                continue

            link_kind = _SEQ if kind == seq else _BRANCH
            consults_link = last_line is not None and kind in (seq, branch)
            if consults_link:
                counters.mab_lookups += 1  # link consult (for hit rate)
            link = (
                self._links.get((last_line, link_kind))
                if consults_link else None
            )
            if link is not None and link[0] == line:
                # Valid link: skip the tag search.
                way = link[1]
                actual = cache.probe(addr)
                if actual == way:
                    counters.mab_hits += 1  # link hit (reuses counter)
                    cache.access(addr)
                    counters.cache_hits += 1
                    counters.way_accesses += 1
                    last_line = line
                    continue
                counters.stale_hits += 1  # should never happen

            # Full access, then learn the link.
            result = cache.access(addr)
            counters.tag_accesses += cfg.ways
            if result.hit:
                counters.cache_hits += 1
                counters.way_accesses += cfg.ways
            else:
                counters.cache_misses += 1
                counters.way_accesses += cfg.ways + 1
            if last_line is not None and kind in (seq, branch):
                self._set_link(last_line, link_kind, line, result.way)
            last_line = line

        return counters


@fast_path(MaLinksICache)
def ma_links_counters(
    cols: FetchColumns, shared: SharedPass, point: DesignPoint
) -> AccessCounters:
    """Counters from the shared packed results (pure derivation).

    Derived as for a fresh controller: after any consulting access
    ``m``, the consulted key's link is (line_m, resident way of
    line_m) — the full path wrote it, and a link hit means it
    already held exactly that value — so the consult at ``i`` hits
    iff its most recent same-key predecessor ``m`` exists,
    targeted ``i``'s line, and neither the target nor the source
    line was evicted strictly between them (evictions *at* ``m``
    precede the link write; the consult at ``i`` precedes access
    ``i``'s eviction).  Stale hits provably never fire: a surviving
    link's target is resident with an unchanged way, so the
    verifying probe always succeeds.
    """
    counters = AccessCounters()
    config = point.cache
    nways = config.ways
    n = cols.n
    counters.accesses = n
    counters.aux_accesses = n  # link bits read with the line
    if n == 0:
        return counters

    offset_bits = config.offset_bits
    index_bits = config.index_bits
    lines = cols.lines_array(offset_bits, index_bits)
    sets = cols.sets_array(offset_bits, index_bits)
    intra = cols.intra_mask(offset_bits, index_bits)
    hit = shared.hit
    if not bool(hit[intra].all()):
        raise AssertionError("intra-line fetch must hit")

    kind = cols.kind
    is_seq = kind == np.uint8(int(FetchKind.SEQ))
    is_branch = kind == np.uint8(int(FetchKind.BRANCH))
    consult = ~intra & (is_seq | is_branch)
    consult[0] = False  # no previous line to link from

    # Each consult ``cand`` paired with the most recent prior consult
    # ``mm`` with the same (source line, kind) key.
    prev_line = np.empty(n, dtype=np.int64)
    prev_line[0] = -1
    prev_line[1:] = lines[:-1]
    ci = np.flatnonzero(consult)
    earlier, later = repeat_pairs(prev_line[ci] * 2 + is_branch[ci])
    cand, mm = ci[later], ci[earlier]
    same_target = lines[mm] == lines[cand]
    cand = cand[same_target]
    mm = mm[same_target]
    dead = shared.evicted_between(sets, index_bits, lines[cand], mm, cand)
    dead |= shared.evicted_between(
        sets, index_bits, prev_line[mm], mm, cand
    )
    link_hit_idx = cand[~dead]
    if not bool(hit[link_hit_idx].all()):
        raise AssertionError("link target must be cache-resident")

    n_intra = int(intra.sum())
    mab_hits = len(link_hit_idx)
    cache_hits = shared.hit_count
    misses = n - cache_hits
    n_full = n - n_intra - mab_hits
    full_hits = n_full - misses  # intra and link hits always hit

    counters.intra_line_hits = n_intra
    counters.mab_lookups = int(consult.sum())
    counters.mab_hits = mab_hits
    counters.stale_hits = 0
    counters.cache_hits = cache_hits
    counters.cache_misses = misses
    counters.tag_accesses = nways * n_full
    counters.way_accesses = (
        n_intra + mab_hits           # single known way
        + full_hits * nways          # parallel fetch
        + misses * (nways + 1)       # parallel fetch + refill
    )
    return counters

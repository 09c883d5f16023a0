"""Columnar pre-split of one workload's access stream.

Every fast engine starts the same way: vectorize the 32-bit address
arithmetic over the whole trace (cache tag and set index per access,
the narrow-adder MAB key for way-memo controllers, the intra-line mask
for fetch streams); the shared cache sweep takes the tag and set
arrays as they are.  That work depends only on the stream and (parts
of) the cache geometry — never on architecture state — so it is
computed here exactly once and shared by every controller replaying
the stream.  The same goes for the LRU stack distances of a value stream
(:meth:`_ColumnsBase.lru_distance`), which decide membership in every
LRU side structure the derivations model: the MAB's two sides and the
set buffer.

Each derived column is cached under the *narrowest* key it actually
depends on:

* ``tags`` and the narrow-adder ``keys`` depend only on
  ``offset_bits + index_bits`` (the tag boundary), so every cache
  geometry with the same boundary — and every MAB size — shares one
  array (a MAB that skips accesses, like the I side's, takes
  :meth:`~_ColumnsBase.keys_at` its lookups instead);
* ``sets`` depends on the full ``(offset_bits, index_bits)`` split;
* ``lines`` depend only on ``offset_bits``.

A :class:`DataColumns`/:class:`FetchColumns` object computes each
derived array once and keeps it in memory; the replay engine keeps
one such object per (cache side, workload) for the life of the
process.  Nothing is written to disk: loading a stream's arrays back
from an archive measured no faster than recomputing them.

The tag column is the plain ``addr >> (offset_bits + index_bits)``
split.  For non-bypass accesses the way-memo reference computes it
through the narrow-adder reconstruction
``(base_tag + carry - sign) & tag_mask`` — the two are numerically
identical (that equivalence *is* the paper's Figure 3 datapath), which
the differential and lockstep fuzz suites assert for every
architecture.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cache.cache import (
    _F_EVICTED, _F_HIT, _F_TAG_SHIFT, _F_WAY_FIELD, stable_argsort,
)
from repro.cache.write_buffer import WriteBuffer
from repro.sim.fetch import FetchKind, FetchStream
from repro.sim.trace import DataTrace

#: Per-process column machinery counters: how many derived arrays were
#: computed and how many LRU-distance passes ran.  Tests assert sweep
#: groups compute their pre-split once per workload and their
#: distances once per value stream, not per geometry.
_STATS: Dict[str, int] = {
    "array_computes": 0,
    "tags_computes": 0,
    "sets_computes": 0,
    "keys_computes": 0,
    "lines_computes": 0,
    "distance_passes": 0,
}


def column_stats() -> Dict[str, int]:
    """Snapshot of the per-process column counters."""
    return dict(_STATS)


def reset_column_stats() -> None:
    """Zero the column counters (tests)."""
    for key in _STATS:
        _STATS[key] = 0


def _count(key: str, amount: int = 1) -> None:
    _STATS[key] += amount


class SharedPass:
    """The packed results of one shared ``access_fast_batch`` sweep.

    Architectures whose access stream is state-independent all observe
    the *same* per-access (hit, way, eviction) outcomes, so the engine
    hands every member of a (geometry, policy) group this one view,
    together with the group of ``members`` deriving from it.  The
    sweep itself runs on the first read of :attr:`packed`, so a group
    whose members never read it (a filter cache, which walks its own
    L1 stream) pays for none.  The hit vector, the hit count, the
    eviction events and anything the members :meth:`memo`-ize are
    derived lazily and shared too.  The members read the sweep through
    these accessors alone: this class is the one place outside the
    cache model that decodes the packed bit layout.
    """

    __slots__ = ("members", "_sweep", "_packed", "_memo")

    def __init__(
        self, sweep: Callable[[], np.ndarray], members: Sequence = ()
    ):
        self.members = tuple(members)
        self._sweep = sweep
        self._packed: Optional[np.ndarray] = None
        self._memo: Dict[str, object] = {}

    @property
    def packed(self) -> np.ndarray:
        """The sweep's int64 packed results, one per access (the sweep
        runs on first read)."""
        if self._packed is None:
            self._packed = self._sweep()
        return self._packed

    @property
    def hit(self) -> np.ndarray:
        """Boolean hit vector (packed bit 0), one entry per access."""
        return self.memo("hit", lambda: (self.packed & _F_HIT) == _F_HIT)

    @property
    def hit_count(self) -> int:
        return self.memo("hit-count", lambda: int(self.hit.sum()))

    def memo(self, key: str, compute: Callable[[], object]) -> object:
        """A value every member of the group derives alike, computed
        by the first member that asks."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = compute()
        return got

    def same_way(self, earlier: np.ndarray, later: np.ndarray) -> np.ndarray:
        """Whether access ``later[i]`` hits in the way that access
        ``earlier[i]`` resolved."""
        packed = self.packed
        return self.hit[later] & (
            ((packed[later] ^ packed[earlier]) & _F_WAY_FIELD) == 0
        )

    def evictions(
        self, sets: np.ndarray, index_bits: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The sweep's eviction events: the positions of the accesses
        that evict a line, in stream order, and the line each evicts
        (``tag << index_bits | set``); ``sets`` is the sweep's set
        column."""

        def events() -> Tuple[np.ndarray, np.ndarray]:
            packed = self.packed
            at = np.flatnonzero(packed & _F_EVICTED)
            return at, ((packed[at] >> _F_TAG_SHIFT) << index_bits) | sets[at]

        return self.memo(f"evictions{index_bits}", events)

    def evicted_between(
        self, sets: np.ndarray, index_bits: int, lines: np.ndarray,
        earlier: np.ndarray, later: np.ndarray,
    ) -> np.ndarray:
        """Whether the sweep evicts line ``lines[i]`` (``tag <<
        index_bits | set``) strictly between accesses ``earlier[i]``
        and ``later[i]``; ``sets`` is the sweep's set column.

        Every eviction becomes a ``line * n + position`` key, so one
        line's events sort into a private range and a window is two
        binary searches.
        """
        span = len(self.packed)

        def keys() -> np.ndarray:
            at, evicted = self.evictions(sets, index_bits)
            return np.sort(evicted * span + at)

        sorted_events = self.memo(f"eviction-keys{index_bits}", keys)
        base = lines * span
        return (
            np.searchsorted(sorted_events, base + earlier, "right")
            < np.searchsorted(sorted_events, base + later, "left")
        )


def repeat_pairs(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each element paired with the latest earlier element whose key
    tuple, one value from each of the equal-length ``columns``, is
    equal: the index arrays ``(earlier, later)``.

    A stable sort by the key tuple, one :func:`stable_argsort` pass per
    column from the last to the first, lines each key's elements up in
    stream order, so the pairs are the sorted neighbours with equal
    keys, listed in that sorted order.
    """
    order = stable_argsort(columns[-1])
    for column in reversed(columns[:-1]):
        order = order[stable_argsort(column[order])]
    same = True
    for column in columns:
        ranked = column[order]
        same = same & (ranked[1:] == ranked[:-1])
    return order[:-1][same], order[1:][same]


def lru_distances(values: np.ndarray, cap: int) -> np.ndarray:
    """Capped LRU stack distance of every element of ``values``.

    An element's stack distance is the number of distinct other values
    since the previous occurrence of its own value; ``cap`` stands for
    "``cap`` or more", first occurrences included.  ``distance < C`` is
    therefore membership in a C-entry LRU structure that every element
    touches, for any ``C <= cap``.

    Repeats of the previous element are at distance 0, so the stream
    collapses into runs of equal values first; adjacent runs differ, so
    every run head is at distance 1 or more, and exactly 1 iff its
    value recurs two runs back: caps up to 2 need one comparison.  For
    wider caps the heads' distances come from a level recurrence, one
    vectorized pass per level C.  Let prev(i) be the previous
    occurrence of head i's value (-2 if none), and last_C(i) the last
    position before i of the C-th most recently used value (-1 while
    fewer than C values have been seen), so that last_1(i) = i - 1 and
    distance(i) >= C iff last_C(i) > prev(i).

    An access at distance d moves the values at LRU depths 1..d down
    one depth and leaves the deeper ones in place, so the C-th entry
    changes only at an access u with distance(u) >= C - 1, and then to
    the entry that was (C-1)-th, whose last position last_{C-1}(u)
    is later than its own.  last_C therefore never moves backwards,
    and it equals the largest last_{C-1}(u) over the earlier such u:

        last_C(i) = max{last_{C-1}(u) : u < i, distance(u) >= C - 1}

    That is one ``np.maximum.accumulate`` over the heads still at
    distance >= C - 1, and only the heads it leaves at distance >= C
    take part in the next level.  The levels stop at ``cap``, or at
    the first level that no recurring head reaches: the heads left
    then are first occurrences, which keep the cap.
    """
    if cap < 1:
        raise ValueError("LRU distance cap must be at least 1")
    dtype = np.min_scalar_type(cap)
    out = np.zeros(len(values), dtype=dtype)
    if not len(values):
        return out
    head = np.empty(len(values), dtype=bool)
    head[0] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    runs = values[heads]
    if cap <= 2:
        dist = np.full(len(runs), cap, dtype=dtype)
        if cap == 2:
            dist[2:][runs[2:] == runs[:-2]] = 1
    else:
        dist = _level_distances(runs, cap, dtype)
    out[heads] = dist
    return out


def _level_distances(runs: np.ndarray, cap: int, dtype) -> np.ndarray:
    """:func:`lru_distances` of a stream whose neighbours differ."""
    m = len(runs)
    index = np.int32 if m < np.iinfo(np.int32).max else np.int64
    dist = np.full(m, cap, dtype=dtype)
    # prev: the previous occurrence of each head's value, -2 if none.
    earlier, later = repeat_pairs(runs)
    prev = np.full(m, -2, dtype=index)
    prev[later] = earlier
    del earlier, later
    # The heads at distance >= C, with prev and last_C of each.
    alive = np.arange(m, dtype=index)
    last = alive - 1
    for level in range(1, cap):
        deeper = np.empty_like(last)
        deeper[0] = -1
        np.maximum.accumulate(last[:-1], out=deeper[1:])
        reach = deeper > prev
        dist[alive[~reach]] = level
        if not (reach & (prev >= 0)).any():
            break
        alive, prev, last = alive[reach], prev[reach], deeper[reach]
    return dist


class _ColumnsBase:
    """Shared machinery: dependency-keyed arrays and LRU distances."""

    def __init__(self):
        self._arrays: Dict[str, np.ndarray] = {}
        self._distances: Dict[str, Tuple[int, np.ndarray]] = {}

    # -- columns the subclasses must provide ----------------------------

    #: numpy int64 views of the stream (bound in subclass __init__).
    base64: np.ndarray
    disp64: np.ndarray
    addr64: np.ndarray
    n: int

    # -- array computations (each keyed by what it depends on) -----------

    def _compute_tags(self, low_bits: int) -> np.ndarray:
        return self.addr64 >> low_bits

    def _compute_sets(self, offset_bits: int, index_bits: int) -> np.ndarray:
        return (self.addr64 >> offset_bits) & ((1 << index_bits) - 1)

    def _compute_keys(
        self, low_bits: int, at: Optional[np.ndarray] = None
    ) -> np.ndarray:
        # Narrow-adder datapath (paper Figure 3), vectorized: the
        # packed MAB key per access (or per access of ``at``), -1
        # marking a large-displacement bypass.  Depends only on
        # (offset_bits + index_bits), i.e. on the tag boundary — every
        # MAB size and every cache geometry with the same boundary
        # shares one key column.
        low_mask = (1 << low_bits) - 1
        upper_mask = (1 << (32 - low_bits)) - 1
        base, disp = self.base64, self.disp64
        if at is not None:
            base, disp = base[at], disp[at]
        d32 = disp & 0xFFFFFFFF
        raw = (base & low_mask) + (d32 & low_mask)
        upper = d32 >> low_bits
        sign = np.where(upper == upper_mask, 1, 0)
        bypass = (upper != 0) & (upper != upper_mask)
        base_tag = base >> low_bits
        carry = raw >> low_bits
        return np.where(
            bypass, -1,
            (base_tag << 2) | (carry << 1) | sign,
        )

    def _array(
        self, name: str, stat: str, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """One derived array, computed on first use."""
        got = self._arrays.get(name)
        if got is None:
            got = self._arrays[name] = compute()
            _count("array_computes")
            _count(stat)
        return got

    # -- public columns --------------------------------------------------

    def tags_array(self, offset_bits: int, index_bits: int) -> np.ndarray:
        low = offset_bits + index_bits
        return self._array(
            f"tags{low}", "tags_computes",
            lambda: self._compute_tags(low),
        )

    def sets_array(self, offset_bits: int, index_bits: int) -> np.ndarray:
        return self._array(
            f"sets{offset_bits}x{index_bits}", "sets_computes",
            lambda: self._compute_sets(offset_bits, index_bits),
        )

    def keys_array(self, offset_bits: int, index_bits: int) -> np.ndarray:
        low = offset_bits + index_bits
        return self._array(
            f"keys{low}", "keys_computes",
            lambda: self._compute_keys(low),
        )

    def keys_at(
        self, offset_bits: int, index_bits: int, at: np.ndarray
    ) -> np.ndarray:
        """The narrow-adder keys of the accesses at positions ``at``
        alone: ``keys_array(...)[at]`` without the full-length column
        (computed on every call, not kept)."""
        return self._compute_keys(offset_bits + index_bits, at)

    def lines_array(self, offset_bits: int, index_bits: int) -> np.ndarray:
        """Line numbers (``addr >> offset_bits``) per access.

        Depends only on ``offset_bits`` (lines are line_bytes wide);
        ``index_bits`` is accepted for signature symmetry.
        """
        return self._array(
            f"lines{offset_bits}", "lines_computes",
            lambda: self.addr64 >> offset_bits,
        )

    def lru_distance(
        self, name: str, values: Callable[[], np.ndarray], cap: int
    ) -> np.ndarray:
        """:func:`lru_distances` of the value stream ``name`` (memoized).

        Exact below ``cap``: a stream already walked with a wider cap
        is served from that pass, so a group that asks with its widest
        cap first walks each value stream once for every geometry.
        """
        walked, got = self._distances.get(name, (0, None))
        if walked < cap:
            got = lru_distances(values(), cap)
            _count("distance_passes")
            self._distances[name] = (cap, got)
        return got


class DataColumns(_ColumnsBase):
    """Columnar view of a :class:`~repro.sim.trace.DataTrace`."""

    def __init__(self, trace: DataTrace):
        super().__init__()
        self.n = len(trace.base)
        self.base64 = trace.base.astype(np.int64)
        self.disp64 = trace.disp.astype(np.int64)
        self.addr64 = (self.base64 + self.disp64) & 0xFFFFFFFF
        #: Boolean store flags.
        self.store_mask = trace.store
        self._num_stores: Optional[int] = None
        self._coalesced: Dict[int, int] = {}

    @property
    def num_stores(self) -> int:
        if self._num_stores is None:
            self._num_stores = int(self.store_mask.sum())
        return self._num_stores

    def apply_load_store(self, counters) -> None:
        """Fill the loads/stores split on a counters object."""
        counters.stores = self.num_stores
        counters.loads = counters.accesses - counters.stores

    def write_buffer_coalesced(self, config) -> int:
        """Stores that coalesce in a write buffer fed every store.

        Every design stages every store, whatever its side structures
        do, so the count is a property of the stream and the line size
        alone, memoized per line size.  A store to the line the previous
        store staged always coalesces, so only the first store of each
        such run walks through the
        :class:`~repro.cache.write_buffer.WriteBuffer` model.
        """
        got = self._coalesced.get(config.line_bytes)
        if got is None:
            addrs = self.addr64[self.store_mask]
            lines = addrs >> config.offset_bits
            head = np.ones(len(lines), dtype=bool)
            head[1:] = lines[1:] != lines[:-1]
            buffer = WriteBuffer(config)
            for addr in addrs[head].tolist():
                buffer.push(addr)
            repeats = len(lines) - int(np.count_nonzero(head))
            got = buffer.coalesced + repeats
            self._coalesced[config.line_bytes] = got
        return got


class FetchColumns(_ColumnsBase):
    """Columnar view of a :class:`~repro.sim.fetch.FetchStream`."""

    #: A fetch is a load.
    num_stores = 0

    def __init__(self, fetch: FetchStream):
        super().__init__()
        self.n = len(fetch)
        self.base64 = fetch.base.astype(np.int64)
        self.disp64 = fetch.disp.astype(np.int64)
        self.addr64 = fetch.addr.astype(np.int64)
        self.kind = fetch.kind
        #: Boolean store flags: all false.
        self.store_mask = np.zeros(self.n, dtype=bool)
        self._intra: Dict[int, np.ndarray] = {}

    def intra_mask(self, offset_bits: int, index_bits: int) -> np.ndarray:
        """Boolean mask of intra-line sequential fetches.

        True where the fetch is sequential *and* stays within the
        previous access's cache line — a property of the stream alone,
        shared by the Panwar baseline and anything else that elides
        work on intra-line flow.
        """
        got = self._intra.get(offset_bits)
        if got is None:
            lines = self.lines_array(offset_bits, index_bits)
            prev = np.concatenate((np.int64([-1]), lines[:-1]))
            got = (
                (self.kind == np.uint8(int(FetchKind.SEQ)))
                & (lines == prev)
            )
            self._intra[offset_bits] = got
        return got

    def apply_load_store(self, counters) -> None:
        """Fetch streams have no load/store split; nothing to fill."""


def columns_for_stream(stream):
    """Build the columnar view matching ``stream``'s type."""
    if isinstance(stream, DataTrace):
        return DataColumns(stream)
    if isinstance(stream, FetchStream):
        return FetchColumns(stream)
    raise TypeError(
        f"no columnar representation for {type(stream).__name__}"
    )

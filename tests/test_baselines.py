"""Baseline architecture tests: accounting rules and orderings."""

import numpy as np

from repro.baselines import (
    FilterCache,
    OriginalCache,
    PanwarICache,
    SetBufferDCache,
    TwoPhaseCache,
    WayPredictionCache,
)
from repro.sim.fetch import FetchKind, FetchStream
from repro.sim.trace import DataTrace
from repro.workloads import synthetic_data_trace, synthetic_fetch_stream

START, SEQ, BR = (
    int(FetchKind.START), int(FetchKind.SEQ), int(FetchKind.BRANCH)
)


def data_trace(records):
    base, disp, store = zip(*records)
    return DataTrace.from_lists(base, disp, store)


def fetch(records):
    addr, kind, base, disp = zip(*records)
    return FetchStream(
        addr=np.asarray(addr, dtype=np.uint32),
        kind=np.asarray(kind, dtype=np.uint8),
        base=np.asarray(base, dtype=np.uint32),
        disp=np.asarray(disp, dtype=np.int32),
        packet_bytes=8,
    )


# ----------------------------------------------------------------------
# original
# ----------------------------------------------------------------------

def test_original_dcache_load_touches_all_ways():
    c = OriginalCache().process(data_trace([
        (0x40000, 0, False),   # miss: 2 tags, 2 ways + refill
        (0x40000, 4, False),   # hit: 2 tags, 2 ways
    ]))
    assert c.tag_accesses == 4
    assert c.way_accesses == (2 + 1) + 2


def test_original_dcache_store_single_way():
    """The write-back buffer resolves the way before the data write."""
    c = OriginalCache().process(data_trace([
        (0x40000, 0, False),
        (0x40000, 0, True),
    ]))
    assert c.way_accesses == (2 + 1) + 1
    assert c.stores == 1


def test_original_dcache_stores_change_only_the_way_count():
    """The cache model treats a store like a load (it fills on a miss
    and keeps no dirty state), so clearing every store flag leaves the
    cache state and the hit/miss counts alone; only the store's
    single-way data write, which the controller charges itself, moves
    the way count."""
    trace = synthetic_data_trace(num_accesses=2000, seed=4)
    assert trace.store.any()
    as_loads = DataTrace.from_lists(
        trace.base, trace.disp, np.zeros(len(trace.store), dtype=bool)
    )
    with_stores, all_loads = OriginalCache(), OriginalCache()
    c = with_stores.process_reference(trace)
    loads = all_loads.process_reference(as_loads)
    assert with_stores.cache._tags == all_loads.cache._tags
    assert (c.cache_hits, c.cache_misses, c.tag_accesses) == (
        loads.cache_hits, loads.cache_misses, loads.tag_accesses
    )
    ways = with_stores.cache_config.ways
    assert loads.way_accesses - c.way_accesses == (ways - 1) * c.stores
    assert OriginalCache().process(trace) == c


def test_original_icache_constant_cost():
    fs = fetch([(0x0, START, 0x0, 0), (0x8, SEQ, 0x0, 8)])
    c = OriginalCache().process(fs)
    assert c.tags_per_access == 2.0
    assert c.way_accesses == (2 + 1) + 2


# ----------------------------------------------------------------------
# Panwar [4]
# ----------------------------------------------------------------------

def test_panwar_intra_line_free_inter_line_full():
    fs = fetch([
        (0x0, START, 0x0, 0),
        (0x8, SEQ, 0x0, 8),    # intra-line
        (0x18, SEQ, 0x10, 8),  # intra-line (same 32 B line)
        (0x20, SEQ, 0x18, 8),  # inter-line: full cost
    ])
    c = PanwarICache().process(fs)
    assert c.intra_line_hits == 2
    assert c.tag_accesses == 2 + 2  # START + inter-line


def test_panwar_branch_always_full():
    fs = fetch([
        (0x0, START, 0x0, 0),
        (0x8, BR, 0x0, 8),     # branch into the SAME line: still full
    ])
    c = PanwarICache().process(fs)
    assert c.intra_line_hits == 0
    assert c.tag_accesses == 4


def test_panwar_between_original_and_nothing(workload):
    original = OriginalCache().process(workload.fetch)
    panwar = PanwarICache().process(workload.fetch)
    assert panwar.tag_accesses < original.tag_accesses
    assert panwar.way_accesses < original.way_accesses
    assert panwar.cache_hits == original.cache_hits


# ----------------------------------------------------------------------
# set buffer [14]
# ----------------------------------------------------------------------

def test_set_buffer_hit_single_way():
    c = SetBufferDCache().process(data_trace([
        (0x40000, 0, False),   # buffer miss: full + allocate
        (0x40000, 4, False),   # buffered set, tag matches: 1 way
        (0x40000, 8, False),
    ]))
    assert c.tag_accesses == 2
    assert c.way_accesses == (2 + 1) + 1 + 1
    assert c.aux_accesses == 3


def test_set_buffer_snapshot_refreshes_on_miss():
    cfg_stride = 512 * 32   # same set, different tag
    c = SetBufferDCache(entries=1).process(data_trace([
        (0x40000, 0, False),
        (0x40000 + cfg_stride, 0, False),    # same set, cache miss
        (0x40000 + cfg_stride, 4, False),    # buffered tag now present
    ]))
    assert c.cache_misses == 2
    assert c.way_accesses == (2 + 1) + (2 + 1) + 1


def test_set_buffer_lru_eviction():
    line = 32
    c = SetBufferDCache(entries=2).process(data_trace([
        (0x40000, 0, False),            # set 0
        (0x40000 + line, 0, False),     # set 1
        (0x40000 + 2 * line, 0, False),  # set 2 -> evicts set 0
        (0x40000, 0, False),            # set 0 again: buffer miss
    ]))
    # All four are full accesses (three cold + one buffer miss).
    assert c.tag_accesses == 8


# ----------------------------------------------------------------------
# way prediction [9]
# ----------------------------------------------------------------------

def test_way_prediction_correct_is_cheap():
    c = WayPredictionCache().process(data_trace([
        (0x40000, 0, False),   # miss + mispredict path
        (0x40000, 0, False),   # hit, prediction correct
    ]))
    # Second access: 1 tag, 1 way, no extra cycle.
    assert c.extra_cycles == 1
    assert c.tag_accesses == 2 + 1


def test_way_prediction_penalty_on_mispredict():
    stride = 512 * 32
    c = WayPredictionCache().process(data_trace([
        (0x40000, 0, False),            # fills way 0, predicts 0
        (0x40000 + stride, 0, False),   # same set, fills way 1
        (0x40000, 0, False),            # predicted 1, actual 0: penalty
    ]))
    assert c.extra_cycles == 3


def test_way_prediction_icache(workload):
    c = WayPredictionCache().process(workload.fetch)
    assert c.extra_cycles > 0
    assert c.tags_per_access < 2.0


# ----------------------------------------------------------------------
# filter cache [6]
# ----------------------------------------------------------------------

def test_filter_cache_l0_hit_skips_l1():
    c = FilterCache(l0_lines=1).process(data_trace([
        (0x40000, 0, False),   # L0 miss: stall + full L1
        (0x40000, 4, False),   # L0 hit: free
    ]))
    assert c.extra_cycles == 1
    assert c.tag_accesses == 2
    assert c.aux_accesses == 2


def test_filter_cache_icache_penalty_counted(workload):
    c = FilterCache().process(workload.fetch)
    assert c.extra_cycles > 0
    assert c.tag_accesses < 2 * c.accesses


def test_filter_cache_l0_invalidated_on_l1_eviction():
    """L0 is inclusive in L1: evicting the L1 line kills the L0 copy.

    Regression: without the eviction listener the L0 kept serving a
    line after its L1 eviction, so a write-through on the stale "hit"
    silently miss-filled L1 — an uncharged fill that left
    ``counters.cache_misses`` disagreeing with the cache's own miss
    count.
    """
    stride = 512 * 32  # same set, different tag
    a, b, c_addr = 0x40000, 0x40000 + stride, 0x40000 + 2 * stride
    trace = data_trace([
        (a, 0, False),       # L1 fill way 0
        (b, 0, False),       # L1 fill way 1
        (c_addr, 0, False),  # evicts a (LRU) -> must drop a from L0
        (a, 0, True),        # stale in L0 pre-fix; now a clean miss
    ])
    ctrl = FilterCache()
    counters = ctrl.process_reference(trace)
    assert counters.cache_misses == 4
    assert counters.cache_misses == ctrl.cache.misses
    assert counters.extra_cycles == 4
    # ... and the refill re-admits the line to both levels.
    assert ctrl.cache_config.line_addr(a) in ctrl._l0
    assert ctrl.cache.probe(a) is not None
    # The fast path applies the same invalidation.
    assert FilterCache().process(trace) == counters


def test_filter_cache_write_through_refreshes_l1_recency():
    """A store that hits the L0 still writes through to L1, and that
    access makes its line the set's most recent: the next conflict miss
    evicts the other line.  After a load hit in the L0, L1 never saw
    the access, so the same miss evicts the loaded line instead."""
    stride = 512 * 32  # same set, different tag
    a, b, c_addr = 0x40000, 0x40000 + stride, 0x40000 + 2 * stride

    def stream(store_a):
        return data_trace([
            (a, 0, False),       # L0 + L1 miss
            (b, 0, False),       # L0 + L1 miss; a is the L1 LRU
            (a, 0, store_a),     # L0 hit; only a store reaches L1
            (c_addr, 0, False),  # evicts the L1 LRU (and its L0 copy)
            (b, 0, False),       # an L0 hit only if c evicted a
        ])

    stored = FilterCache()
    counters = stored.process_reference(stream(True))
    assert counters.cache_misses == counters.extra_cycles == 4

    loaded = FilterCache()
    load_counters = loaded.process_reference(stream(False))
    assert load_counters.cache_misses == load_counters.extra_cycles == 3

    assert FilterCache().process(stream(True)) == counters
    assert FilterCache().process(stream(False)) == load_counters


# ----------------------------------------------------------------------
# two-phase [8]
# ----------------------------------------------------------------------

def test_two_phase_always_one_way_one_cycle():
    trace = synthetic_data_trace(num_accesses=1000, seed=9)
    c = TwoPhaseCache().process(trace)
    assert c.extra_cycles == c.accesses
    assert c.way_accesses == c.accesses     # exactly one way each
    assert c.tag_accesses == 2 * c.accesses


def test_two_phase_icache():
    fs = synthetic_fetch_stream(num_blocks=200, seed=2)
    c = TwoPhaseCache().process(fs)
    assert c.extra_cycles == c.accesses
    assert c.ways_per_access == 1.0

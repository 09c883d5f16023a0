"""Way-memoization controller tests (D-cache, I-cache, line buffer).

Hand-crafted traces with known MAB behaviour pin the exact tag/way
accounting; synthetic traces check the aggregate properties the paper
relies on ("at least one way per access", "MAB hit => zero tags").
"""

import numpy as np

from repro.cache.config import FRV_DCACHE
from repro.core import (
    LineBufferWayMemoDCache,
    MABConfig,
    WayMemoDCache,
    WayMemoICache,
)
from repro.sim.fetch import FetchKind, FetchStream
from repro.sim.trace import DataTrace
from repro.workloads import synthetic_data_trace, synthetic_fetch_stream


def data_trace(records):
    base, disp, store = zip(*records)
    return DataTrace.from_lists(base, disp, store)


def fetch(records, packet_bytes=8):
    addr, kind, base, disp = zip(*records)
    return FetchStream(
        addr=np.asarray(addr, dtype=np.uint32),
        kind=np.asarray(kind, dtype=np.uint8),
        base=np.asarray(base, dtype=np.uint32),
        disp=np.asarray(disp, dtype=np.int32),
        packet_bytes=packet_bytes,
    )


# ----------------------------------------------------------------------
# D-cache
# ----------------------------------------------------------------------

def test_dcache_repeat_access_hits_mab():
    ctrl = WayMemoDCache()
    trace = data_trace([(0x40000, 8, False)] * 4)
    c = ctrl.process(trace)
    assert c.accesses == 4
    assert c.mab_hits == 3
    # First access: full (2 tags, 2 ways + refill); then 3 x 1 way.
    assert c.tag_accesses == 2
    assert c.way_accesses == 2 + 1 + 3
    assert c.stale_hits == 0


def test_dcache_store_single_way():
    ctrl = WayMemoDCache()
    trace = data_trace([
        (0x40000, 0, True),   # miss: 2 tags, 1 way + refill
        (0x40000, 0, True),   # MAB hit: 1 way
    ])
    c = ctrl.process(trace)
    assert c.tag_accesses == 2
    assert c.way_accesses == (1 + 1) + 1
    assert c.stores == 2


def test_dcache_large_displacement_bypasses():
    ctrl = WayMemoDCache()
    trace = data_trace([
        (0x40000, 0, False),
        (0x40000, (1 << 20) + 32, False),   # bypass, set index 1
        (0x40000, 0, False),
    ])
    c = ctrl.process(trace)
    assert c.mab_bypasses == 1
    # The bypass targets a different set, so the original entry
    # survives and the third access hits.
    assert c.mab_hits == 1


def test_dcache_bypass_same_set_invalidates():
    ctrl = WayMemoDCache()
    # 1 << 14 displacement keeps the same set index (bits 5..13 zero)
    # but is too large for the MAB -> the paper rule clears the column.
    trace = data_trace([
        (0x40000, 0, False),
        (0x40000, 1 << 15, False),   # bypass, same set index 0
        (0x40000, 0, False),
    ])
    c = ctrl.process(trace)
    assert c.mab_bypasses == 1
    assert c.mab_hits == 0           # column was invalidated


def test_dcache_mab_hit_is_always_cache_hit(dct_workload):
    ctrl = WayMemoDCache()
    c = ctrl.process(dct_workload.trace.data)
    assert c.stale_hits == 0
    assert c.cache_hits + c.cache_misses == c.accesses


def test_dcache_at_least_one_way_per_access():
    trace = synthetic_data_trace(num_accesses=5000, seed=3)
    c = WayMemoDCache().process(trace)
    assert c.way_accesses >= c.accesses
    assert c.ways_per_access <= FRV_DCACHE.ways + 1


def test_dcache_evict_hook_mode_runs_clean():
    trace = synthetic_data_trace(num_accesses=5000, seed=4)
    ctrl = WayMemoDCache(
        mab_config=MABConfig(2, 8, consistency="evict_hook")
    )
    c = ctrl.process(trace)
    assert c.stale_hits == 0


def test_dcache_counters_note_label():
    c = WayMemoDCache(mab_config=MABConfig(2, 16)).process(
        data_trace([(0x40000, 0, False)])
    )
    assert c.notes["mab_label"] == "2x16"


# ----------------------------------------------------------------------
# I-cache
# ----------------------------------------------------------------------

START, SEQ, BR, IND = (
    int(FetchKind.START), int(FetchKind.SEQ),
    int(FetchKind.BRANCH), int(FetchKind.INDIRECT),
)


def test_icache_intra_line_sequential_free():
    # Packets 0x0 and 0x8 share the 32 B line at 0x0.
    fs = fetch([
        (0x0, START, 0x0, 0),
        (0x8, SEQ, 0x0, 8),
        (0x10, SEQ, 0x8, 8),
        (0x18, SEQ, 0x10, 8),
    ])
    c = WayMemoICache().process(fs)
    assert c.intra_line_hits == 3
    assert c.tag_accesses == 2        # only the START access
    assert c.way_accesses == (2 + 1) + 3


def test_icache_inter_line_sequential_uses_mab():
    # Cross from line 0x0 into line 0x20: first time = MAB miss,
    # revisiting the same crossing hits.
    crossing = [
        (0x18, BR, 0x100, 0x18 - 0x100),  # jump to 0x18
        (0x20, SEQ, 0x18, 8),             # inter-line sequential
    ]
    fs = fetch([(0x100, START, 0x100, 0)] + crossing + crossing)
    c = WayMemoICache().process(fs)
    assert c.mab_lookups == 5             # all but nothing intra-line
    assert c.mab_hits == 2                # the repeated BR and SEQ


def test_icache_branch_and_link_paths_hit_on_reuse():
    loop = [
        (0x40, BR, 0x20, 0x20),    # taken branch to 0x40
        (0x48, SEQ, 0x40, 8),
        (0x20, IND, 0x20, 0),      # return via link register
    ]
    fs = fetch([(0x20, START, 0x20, 0)] + loop * 4)
    c = WayMemoICache().process(fs)
    # The SEQ packet stays in the branch target's line -> intra-line.
    assert c.intra_line_hits == 4
    # The START lookup installs (0x20, 0), so even the first return
    # hits; thereafter both control transfers hit every circuit.
    assert c.mab_hits == 7
    assert c.stale_hits == 0


def test_icache_synthetic_stream_properties():
    fs = synthetic_fetch_stream(num_blocks=500, seed=11)
    c = WayMemoICache().process(fs)
    assert c.accesses == len(fs)
    assert c.way_accesses >= c.accesses
    assert c.stale_hits == 0
    # Way memoization must not touch more tags than the original 2/acc.
    assert c.tags_per_access < 2.0


def test_icache_mab_sizes_monotone_hit_rate():
    fs = synthetic_fetch_stream(num_blocks=800, num_targets=24, seed=5)
    rates = []
    for ns in (4, 8, 16, 32):
        c = WayMemoICache(mab_config=MABConfig(2, ns)).process(fs)
        rates.append(c.mab_hit_rate)
    assert rates == sorted(rates), f"hit rate not monotone: {rates}"


# ----------------------------------------------------------------------
# line buffer combination
# ----------------------------------------------------------------------

def test_line_buffer_memo_skips_arrays_on_buffer_hit():
    ctrl = LineBufferWayMemoDCache()
    trace = data_trace([
        (0x40000, 0, False),   # miss: full access, buffer allocates
        (0x40004, 0, False),   # same line: buffer hit, 0 ways
        (0x40008, 0, False),
    ])
    c = ctrl.process(trace)
    assert c.tag_accesses == 2
    assert c.way_accesses == 2 + 1   # only the first (full) access
    assert c.aux_accesses == 3


def test_line_buffer_memo_beats_plain_on_way_accesses(dct_workload):
    # DCT alternates src/table lines every access, so a single-entry
    # buffer never hits; two entries capture the alternation.
    plain = WayMemoDCache().process(dct_workload.trace.data)
    combo = LineBufferWayMemoDCache(line_buffer_entries=2).process(
        dct_workload.trace.data
    )
    assert combo.way_accesses < plain.way_accesses
    assert combo.stale_hits == 0


def test_line_buffer_memo_coherent_after_eviction():
    ctrl = LineBufferWayMemoDCache()
    s = FRV_DCACHE.sets
    base = 0x40000
    conflict1 = base + (FRV_DCACHE.line_bytes * s)      # same set, tag+1
    conflict2 = base + 2 * (FRV_DCACHE.line_bytes * s)  # same set, tag+2
    trace = data_trace([
        (base, 0, False),
        (conflict1, 0, False),
        (conflict2, 0, False),   # evicts `base` from the 2-way set
        (base, 0, False),        # must MISS in the buffer and refill
    ])
    c = ctrl.process(trace)
    assert c.cache_misses == 4
    assert c.stale_hits == 0


def test_deep_line_buffer_drops_lines_the_cache_evicts():
    """A four-line buffer still holds ``base`` when two conflicting
    lines evict it from its 2-way set; the eviction drops it from the
    buffer too, so the revisit misses on both engines."""
    s = FRV_DCACHE.sets
    base = 0x40000
    conflict1 = base + (FRV_DCACHE.line_bytes * s)
    conflict2 = base + 2 * (FRV_DCACHE.line_bytes * s)
    trace = data_trace([
        (base, 0, False),
        (conflict1, 0, False),
        (conflict2, 0, False),   # evicts `base` from cache and buffer
        (base, 0, False),
    ])
    for engine in ("process", "process_reference"):
        ctrl = LineBufferWayMemoDCache(line_buffer_entries=4)
        c = getattr(ctrl, engine)(trace)
        assert c.cache_misses == 4, engine
        assert c.mab_lookups == 4, engine
        assert c.notes["line_buffer_hit_rate"] == 0.0, engine

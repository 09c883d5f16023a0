"""Cross-module integration tests and global invariants.

These tests tie the whole stack together: assembler -> CPU -> traces
-> cache architectures -> power model, plus the paper's global claims
(no performance penalty, MAB-hit => cache-hit, cache behaviour is
architecture-independent).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec, architectures, evaluate
from repro.baselines import OriginalCache, PanwarICache
from repro.core import MABConfig, WayMemoDCache, WayMemoICache
from repro.workloads import BENCHMARK_NAMES, synthetic_data_trace


# ----------------------------------------------------------------------
# functional equivalence across architectures
# ----------------------------------------------------------------------

def test_cache_hit_behaviour_is_architecture_independent(workload):
    """Way memoization must not change WHAT the cache does, only how
    many arrays are touched: hit/miss counts match the original."""
    orig = OriginalCache().process(workload.trace.data)
    memo = evaluate(RunSpec("dcache", "way-memo-2x8", workload.name)).counters
    assert memo.cache_hits == orig.cache_hits
    assert memo.cache_misses == orig.cache_misses

    orig_i = OriginalCache().process(workload.fetch)
    memo_i = evaluate(
        RunSpec("icache", "way-memo-2x16", workload.name)
    ).counters
    assert memo_i.cache_hits == orig_i.cache_hits
    assert memo_i.cache_misses == orig_i.cache_misses


def test_zero_performance_penalty(workload):
    """The paper's key claim: way memoization adds no cycles."""
    for arch in ("way-memo-2x8",):
        c = evaluate(RunSpec("dcache", arch, workload.name)).counters
        assert c.extra_cycles == 0
    for arch in ("way-memo-2x8", "way-memo-2x16", "way-memo-2x32"):
        c = evaluate(RunSpec("icache", arch, workload.name)).counters
        assert c.extra_cycles == 0


def test_no_stale_mab_hits_anywhere(workload):
    """MAB-hit => line resident, across every way-memo variant."""
    for info in architectures("dcache"):
        if info.uses_mab:
            c = evaluate(RunSpec("dcache", info.id, workload.name)).counters
            assert c.stale_hits == 0
    for info in architectures("icache"):
        if info.uses_mab:
            c = evaluate(RunSpec("icache", info.id, workload.name)).counters
            assert c.stale_hits == 0


def test_way_access_bounds(workload):
    """1 <= ways/access <= ways+1 (refill) where the L1 serves every
    access.  Architectures with a hit-serving front structure (line
    buffer, filter cache) legitimately touch zero L1 ways on buffer
    hits and are excluded from the lower bound."""
    front_buffered = ("way-memo+line-buffer", "filter-cache")
    for info in architectures("dcache"):
        c = evaluate(RunSpec("dcache", info.id, workload.name)).counters
        assert c.ways_per_access <= 3.0
        if info.id not in front_buffered:
            assert c.way_accesses >= c.accesses


def test_tag_ordering_original_panwar_memo(workload):
    """The paper's Figure 6 ordering holds on every benchmark."""
    orig = OriginalCache().process(workload.fetch)
    panwar = PanwarICache().process(workload.fetch)
    memo = evaluate(RunSpec("icache", "way-memo-2x16", workload.name)).counters
    assert memo.tag_accesses < panwar.tag_accesses < orig.tag_accesses


def test_intra_line_rates_match_between_panwar_and_memo(workload):
    """Both architectures use the identical intra-line detector."""
    panwar = PanwarICache().process(workload.fetch)
    memo = evaluate(RunSpec("icache", "way-memo-2x16", workload.name)).counters
    assert panwar.intra_line_hits == memo.intra_line_hits


# ----------------------------------------------------------------------
# randomised whole-stack invariant checks
# ----------------------------------------------------------------------

@given(seed=st.integers(0, 2**16), large=st.floats(0.0, 0.2))
@settings(max_examples=15, deadline=None)
def test_dcache_invariants_random_traces(seed, large):
    trace = synthetic_data_trace(
        num_accesses=2000, large_disp_fraction=large, seed=seed
    )
    # The fast engine leaves the controller untouched, so the end
    # state comes from the reference replay it must match.
    memo = WayMemoDCache(mab_config=MABConfig(2, 8))
    c = memo.process_reference(trace)
    fast = WayMemoDCache(mab_config=MABConfig(2, 8)).process(trace)
    assert fast == c
    memo.mab.check_invariants()
    memo.cache.check_invariants()
    assert c.stale_hits == 0
    assert c.mab_hits + c.mab_bypasses <= c.mab_lookups
    # Every valid MAB pair must be cache resident at the end.
    for tag, set_index, way in memo.mab.valid_pairs():
        addr = memo.cache_config.join(tag, set_index)
        assert memo.cache.probe(addr) == way


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_icache_invariants_random_streams(seed):
    from repro.workloads import synthetic_fetch_stream
    fs = synthetic_fetch_stream(num_blocks=400, seed=seed)
    memo = WayMemoICache(mab_config=MABConfig(2, 16))
    c = memo.process_reference(fs)
    fast = WayMemoICache(mab_config=MABConfig(2, 16)).process(fs)
    assert fast == c
    memo.mab.check_invariants()
    assert c.stale_hits == 0
    for tag, set_index, way in memo.mab.valid_pairs():
        addr = memo.cache_config.join(tag, set_index)
        assert memo.cache.probe(addr) == way


# ----------------------------------------------------------------------
# whole-suite end-to-end sanity
# ----------------------------------------------------------------------

def test_suite_wide_power_ordering():
    """Summed over the suite, the paper's winners win."""
    def total_mw(cache, arch):
        return sum(
            evaluate(RunSpec(cache, arch, b)).power.total_mw
            for b in BENCHMARK_NAMES
        )

    orig_d = total_mw("dcache", "original")
    ours_d = total_mw("dcache", "way-memo-2x8")
    panwar_i = total_mw("icache", "panwar")
    ours_i = total_mw("icache", "way-memo-2x16")
    assert ours_d < orig_d
    assert ours_i < panwar_i


def test_mab_duty_cycle_bounded(workload):
    c = evaluate(RunSpec("dcache", "way-memo-2x8", workload.name)).counters
    assert c.mab_lookups == c.accesses  # D-MAB consulted every access
    i = evaluate(RunSpec("icache", "way-memo-2x16", workload.name)).counters
    assert i.mab_lookups == i.accesses - i.intra_line_hits

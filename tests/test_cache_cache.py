"""Set-associative cache behaviour tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import (
    _F_EVICTED,
    _F_HIT,
    _F_TAG_SHIFT,
    _F_WAY_FIELD,
    _F_WAY_SHIFT,
    CacheLineState,
    SetAssociativeCache,
)
from repro.cache.config import FRV_DCACHE, CacheConfig
from repro.cache.replacement import FIFOPolicy, make_policy

SMALL = CacheConfig(size_bytes=1024, ways=2, line_bytes=32)  # 16 sets


def _addr(tag, set_index, offset=0):
    return SMALL.join(tag, set_index, offset)


def test_cold_miss_then_hit():
    cache = SetAssociativeCache(SMALL)
    first = cache.access(0x1000)
    assert not first.hit
    second = cache.access(0x1000)
    assert second.hit
    assert second.way == first.way
    assert cache.hits == 1 and cache.misses == 1


def test_same_line_offsets_hit():
    cache = SetAssociativeCache(SMALL)
    cache.access(_addr(1, 3, 0))
    assert cache.access(_addr(1, 3, 28)).hit


def test_two_way_conflict_eviction_order():
    cache = SetAssociativeCache(SMALL)
    cache.access(_addr(1, 5))
    cache.access(_addr(2, 5))
    cache.access(_addr(1, 5))        # touch tag 1 -> tag 2 is LRU
    result = cache.access(_addr(3, 5))
    assert not result.hit
    assert result.evicted_tag == 2
    assert cache.probe(_addr(1, 5)) is not None
    assert cache.probe(_addr(2, 5)) is None


def test_eviction_reports_evicted_tag():
    cache = SetAssociativeCache(SMALL)
    cache.access(_addr(1, 0))
    cache.access(_addr(2, 0))
    result = cache.access(_addr(3, 0))
    assert result.evicted_tag == 1
    assert (cache.hits, cache.misses, cache.evictions) == (0, 3, 1)


def test_line_state_reports_the_filled_line():
    cache = SetAssociativeCache(SMALL)
    res = cache.access(_addr(4, 2))
    assert cache.access(_addr(4, 2)).hit
    assert cache.line_state(2, res.way) == CacheLineState(valid=True, tag=4)
    assert not cache.line_state(2, 1 - res.way).valid


def test_packed_result_carries_full_width_evicted_tag():
    """The packed layout: hit at bit 0, way from bit 1, the eviction
    flag at bit 9 and the evicted tag from bit 10, wide enough for a
    32-bit tag, from the scalar step and both batch kernels alike."""
    big = (1 << 32) - 1
    stream = [(big, 6), (7, 6), (9, 6), (big, 6)]
    for ways, policy in ((2, "lru"), (2, "fifo"), (4, "lru")):
        config = CacheConfig(size_bytes=32 * ways * 16, ways=ways,
                             line_bytes=32)
        stepped = SetAssociativeCache(
            config, make_policy(policy, config.sets, ways)
        )
        batched = SetAssociativeCache(
            config, make_policy(policy, config.sets, ways)
        )
        expected = [stepped.access_fast(tag, s) for tag, s in stream]
        packed = batched.access_fast_batch(
            np.int64([t for t, _ in stream]), np.int64([s for _, s in stream])
        )
        assert packed.tolist() == expected
        if ways == 2:
            # The third access evicts the full-width tag from way 0.
            third = expected[2]
            assert third & _F_HIT == 0
            assert (third & _F_WAY_FIELD) >> _F_WAY_SHIFT == 0
            assert third & _F_EVICTED
            assert third >> _F_TAG_SHIFT == big
            assert _F_TAG_SHIFT == 10 and _F_EVICTED == 1 << 9
        else:
            assert not any(p & _F_EVICTED for p in expected)
            assert expected[3] == _F_HIT  # full-width tag hits in way 0


def test_eviction_listener_called():
    cache = SetAssociativeCache(SMALL)
    events = []
    cache.add_eviction_listener(lambda tag, s: events.append((tag, s)))
    cache.access(_addr(1, 7))
    cache.access(_addr(2, 7))
    cache.access(_addr(3, 7))
    assert events == [(1, 7)]


def test_probe_does_not_disturb_lru():
    cache = SetAssociativeCache(SMALL)
    cache.access(_addr(1, 1))
    cache.access(_addr(2, 1))
    cache.probe(_addr(1, 1))  # must NOT touch recency
    result = cache.access(_addr(3, 1))
    assert result.evicted_tag == 1


def test_policy_geometry_mismatch_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(SMALL, FIFOPolicy(sets=4, ways=2))


@given(st.lists(st.tuples(
    st.integers(0, 7), st.integers(0, 15)
), max_size=200))
@settings(max_examples=40)
def test_no_duplicate_tags_and_hit_consistency(accesses):
    """Model check: the cache agrees with a dict-of-sets reference."""
    cache = SetAssociativeCache(SMALL)
    reference = {}  # set_index -> list of tags, LRU first
    for tag, set_index in accesses:
        addr = _addr(tag, set_index)
        expected_hit = tag in reference.get(set_index, [])
        result = cache.access(addr)
        assert result.hit == expected_hit
        tags = reference.setdefault(set_index, [])
        if expected_hit:
            tags.remove(tag)
        tags.append(tag)
        if len(tags) > SMALL.ways:
            evicted = tags.pop(0)
            assert result.evicted_tag == evicted
        cache.check_invariants()


# ----------------------------------------------------------------------
# batch kernel
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(
    st.integers(0, 7), st.integers(0, 15)
), max_size=200), st.sampled_from([2, 4]),
    st.sampled_from(["lru", "fifo", "plru"]))
@settings(max_examples=60)
def test_access_fast_batch_matches_access_fast(accesses, ways, policy):
    """With eviction listeners attached, every policy takes the scalar
    loop (``_batch_scalar``), a tight-loop re-statement of access_fast.

    ``lru`` exercises its inline LRU-list branch, ``fifo``/``plru`` the
    policy hooks; the vectorized 2-way LRU kernel is covered by
    ``test_access_fast_batch_lru2_kernel_matches_access_fast``.
    """
    config = CacheConfig(size_bytes=512 * ways, ways=ways, line_bytes=32)
    batched = SetAssociativeCache(
        config, make_policy(policy, config.sets, config.ways)
    )
    stepped = SetAssociativeCache(
        config, make_policy(policy, config.sets, config.ways)
    )
    evictions = []
    batched.add_eviction_listener(
        lambda tag, set_index: evictions.append((tag, set_index))
    )
    expected_evictions = []
    stepped.add_eviction_listener(
        lambda tag, set_index: expected_evictions.append((tag, set_index))
    )

    tags = [a[0] for a in accesses]
    sets = [a[1] % config.sets for a in accesses]
    packed = batched.access_fast_batch(
        np.array(tags, dtype=np.int64), np.array(sets, dtype=np.int64)
    )
    expected = [
        stepped.access_fast(tag, set_index)
        for tag, set_index in zip(tags, sets)
    ]
    assert packed.tolist() == expected
    assert evictions == expected_evictions
    assert batched._tags == stepped._tags
    assert batched._lru == stepped._lru
    # Non-LRU policies keep their victim state outside the cache.
    for attr in ("_next", "_tree"):
        assert getattr(batched.policy, attr, None) == (
            getattr(stepped.policy, attr, None)
        )
    assert (batched.hits, batched.misses, batched.evictions) == (
        stepped.hits, stepped.misses, stepped.evictions
    )


@st.composite
def _lru2_cases(draw):
    """A listener-free 2-way LRU cache, a warm-up and a stream.

    The stream is either independent accesses or runs of accesses to
    one (tag, set): with 512 sets and 32-bit tags independent accesses
    almost never repeat a line, and on a stream where a third or more
    of the accesses do, the kernel sweeps only the first access of
    each run.
    """
    sets = draw(st.sampled_from([1, 2, 16, 512]))
    max_tag = draw(st.sampled_from([3, (1 << 32) - 1]))
    access = st.tuples(st.integers(0, max_tag), st.integers(0, sets - 1))
    warm_up = draw(st.sampled_from(["cold", "prefix"]))
    prefix = [] if warm_up == "cold" else draw(
        st.lists(access, max_size=60)
    )
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(
            st.integers(0, max_tag), st.integers(0, sets - 1),
            st.integers(1, 6),
        ), max_size=50))
        accesses = [
            (tag, set_index)
            for tag, set_index, length in runs for _ in range(length)
        ]
    else:
        accesses = draw(st.lists(access, max_size=200))
    return sets, prefix, accesses


def _assert_same_cache(batched, stepped):
    assert batched._tags == stepped._tags
    assert batched._lru == stepped._lru
    assert (batched.hits, batched.misses, batched.evictions) == (
        stepped.hits, stepped.misses, stepped.evictions
    )


@given(_lru2_cases())
@settings(max_examples=250, deadline=None)
def test_access_fast_batch_lru2_kernel_matches_access_fast(case):
    """The vectorized 2-way LRU kernel (no listener attached) equals an
    access_fast loop: packed results, line state, LRU order and the
    three counters, from cold sets and from sets warmed through
    access_fast, on streams of independent accesses and of same-line
    runs."""
    sets, prefix, accesses = case
    config = CacheConfig(size_bytes=64 * sets, ways=2, line_bytes=32)
    batched = SetAssociativeCache(config)
    stepped = SetAssociativeCache(config)
    for cache in (batched, stepped):
        for tag, set_index in prefix:
            cache.access_fast(tag, set_index)
    packed = batched.access_fast_batch(
        np.array([a[0] for a in accesses], dtype=np.int64),
        np.array([a[1] for a in accesses], dtype=np.int64),
    )
    expected = [
        stepped.access_fast(tag, set_index) for tag, set_index in accesses
    ]
    assert packed.tolist() == expected
    _assert_same_cache(batched, stepped)


def test_access_fast_batch_repeat_hits_the_filled_way():
    cache = SetAssociativeCache(SMALL)
    packed = cache.access_fast_batch(np.int64([1, 1]), np.int64([3, 3]))
    way = cache.probe(_addr(1, 3))
    assert packed.tolist() == [
        way << _F_WAY_SHIFT, _F_HIT | way << _F_WAY_SHIFT
    ]
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_access_fast_batch_takes_columns_returns_int64_array(policy):
    """The sweep takes the replay columns as they are and returns an
    int64 array, on the vectorized path (LRU) and the scalar loop."""
    from repro.replay.columns import DataColumns
    from repro.workloads import synthetic_data_trace

    cols = DataColumns(synthetic_data_trace(num_accesses=512, seed=5))
    cache = SetAssociativeCache(
        FRV_DCACHE, make_policy(policy, FRV_DCACHE.sets, FRV_DCACHE.ways)
    )
    split = (FRV_DCACHE.offset_bits, FRV_DCACHE.index_bits)
    packed = cache.access_fast_batch(
        cols.tags_array(*split), cols.sets_array(*split)
    )
    assert isinstance(packed, np.ndarray)
    assert packed.dtype == np.int64
    assert len(packed) == cols.n
    assert cache.hits + cache.misses == cols.n

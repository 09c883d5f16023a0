"""The vectorized LRU stack distances against the per-run-head walk.

:func:`repro.replay.columns.lru_distances` decides membership in every
LRU side structure the fast paths model (the MAB's tag and index sides,
the set buffer).  The walk below moves every run head through a list of
the last ``cap`` distinct values; it was the production implementation
before the level recurrence replaced it, and it stays here as the
oracle.  Both must agree element for element, dtype included, at every
cap: on hypothesis streams (small alphabets, long loops over few
values, all-distinct values, empty and one-element streams) and on
every MAB key and set stream of the seven benchmarks.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LineBufferWayMemoDCache, WayMemoDCache, WayMemoICache
from repro.replay.columns import _ColumnsBase, lru_distances
from repro.replay.engine import replay_counters

CAPS = range(1, 65)


def _run_head_distances(runs: List[int], cap: int) -> List[int]:
    recent: List[int] = []  # the last ``cap`` distinct values, newest first
    present = set()
    out: List[int] = []
    append = out.append
    for value in runs:
        if value in present:
            distance = recent.index(value)
            del recent[distance]
        else:
            distance = cap
            present.add(value)
            if len(recent) == cap:
                present.discard(recent.pop())
        recent.insert(0, value)
        append(distance)
    return out


def walked_distances(values: np.ndarray, cap: int) -> np.ndarray:
    """The oracle: repeats of the previous element are at distance 0,
    and the run heads walk :func:`_run_head_distances`."""
    dtype = np.min_scalar_type(cap)
    out = np.zeros(len(values), dtype=dtype)
    if not len(values):
        return out
    head = np.empty(len(values), dtype=bool)
    head[0] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    out[heads] = np.array(
        _run_head_distances(values[heads].tolist(), cap), dtype=dtype
    )
    return out


def assert_matches_walk(values, caps=CAPS):
    values = np.asarray(values, dtype=np.int64)
    for cap in caps:
        got = lru_distances(values, cap)
        expected = walked_distances(values, cap)
        assert got.dtype == expected.dtype, cap
        assert np.array_equal(got, expected), (cap, values.tolist())


# ----------------------------------------------------------------------
# hypothesis streams
# ----------------------------------------------------------------------

small_alphabet = st.integers(1, 12).flatmap(
    lambda size: st.lists(st.integers(0, size - 1), max_size=400)
)

#: Loop bodies over at most eight values, each repeated up to 150
#: times: long windows with few distinct values, where a scan back
#: over the window is slowest.
loops = st.lists(
    st.tuples(
        st.lists(st.integers(0, 7), min_size=1, max_size=10),
        st.integers(1, 150),
    ),
    min_size=1, max_size=3,
).map(lambda segments: [
    value for body, times in segments for value in body * times
])

all_distinct = st.lists(
    st.integers(-(1 << 40), 1 << 40), unique=True, max_size=300
)


@settings(max_examples=150, deadline=None)
@given(small_alphabet)
def test_small_alphabets_match_the_walk(values):
    assert_matches_walk(values)


@settings(max_examples=100, deadline=None)
@given(loops)
def test_long_loops_over_few_values_match_the_walk(values):
    assert_matches_walk(values)


@settings(max_examples=50, deadline=None)
@given(all_distinct)
def test_all_distinct_streams_match_the_walk(values):
    assert_matches_walk(values)


@pytest.mark.parametrize("values", [[], [7], [-3]])
def test_empty_and_one_element_streams_match_the_walk(values):
    assert_matches_walk(values)


def test_cap_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        lru_distances(np.array([1, 2, 1]), 0)


# ----------------------------------------------------------------------
# the benchmarks' MAB streams
# ----------------------------------------------------------------------

def _mab_streams(workload, monkeypatch) -> Dict[str, np.ndarray]:
    """Every value stream the benchmark's MAB derivations take LRU
    distances of: the key and set streams of the D-side MAB, of a
    two-line buffer's misses and of the I-side MAB."""
    streams: Dict[str, np.ndarray] = {}
    lru_distance = _ColumnsBase.lru_distance

    def record(self, name, values, cap):
        if name.startswith("mab-"):
            streams[f"{type(self).__name__}:{name}"] = values()
        return lru_distance(self, name, values, cap)

    monkeypatch.setattr(_ColumnsBase, "lru_distance", record)
    replay_counters(
        [WayMemoDCache(), LineBufferWayMemoDCache(line_buffer_entries=2)],
        workload.trace.data,
    )
    replay_counters([WayMemoICache()], workload.fetch)
    return streams


def test_benchmark_mab_streams_match_the_walk(workload, monkeypatch):
    streams = _mab_streams(workload, monkeypatch)
    assert len(streams) == 6
    for name, values in streams.items():
        assert len(values), name
        assert_matches_walk(values, caps=(4, 8, 16, 32))


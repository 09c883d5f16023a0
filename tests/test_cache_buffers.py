"""Line buffer, write buffer and counter tests."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.line_buffer import LineBuffer
from repro.cache.stats import AccessCounters
from repro.cache.write_buffer import WriteBuffer

CFG = CacheConfig(size_bytes=1024, ways=2, line_bytes=32)


# ----------------------------------------------------------------------
# line buffer
# ----------------------------------------------------------------------

def test_line_buffer_hit_within_line():
    buf = LineBuffer(CFG, entries=1)
    assert not buf.access(0x100)
    assert buf.access(0x11C)       # same 32 B line
    assert not buf.access(0x120)   # next line evicts
    assert not buf.access(0x100)
    assert buf.hit_rate == pytest.approx(1 / 4)


def test_line_buffer_lru_with_multiple_entries():
    buf = LineBuffer(CFG, entries=2)
    buf.access(0x000)
    buf.access(0x020)
    assert buf.access(0x000)       # still resident, becomes MRU
    buf.access(0x040)              # evicts 0x020
    assert not buf.access(0x020)


def test_line_buffer_invalidate():
    buf = LineBuffer(CFG, entries=1)
    buf.access(0x200)
    buf.invalidate_line(0x200)
    assert not buf.probe(0x200)


def test_line_buffer_requires_entry():
    with pytest.raises(ValueError):
        LineBuffer(CFG, entries=0)


# ----------------------------------------------------------------------
# write buffer
# ----------------------------------------------------------------------

def test_write_buffer_coalesces_same_line():
    wbuf = WriteBuffer(CFG, entries=2)
    assert not wbuf.push(0x100)
    assert wbuf.push(0x104)        # same line coalesces
    assert wbuf.coalesced == 1
    assert wbuf.occupancy == 1


def test_write_buffer_drains_oldest_when_full():
    wbuf = WriteBuffer(CFG, entries=2)
    wbuf.push(0x000)
    wbuf.push(0x020)
    wbuf.push(0x040)               # forces a drain
    assert wbuf.drains == 1
    assert wbuf.occupancy == 2


def test_write_buffer_drain_all():
    wbuf = WriteBuffer(CFG, entries=4)
    for addr in (0x0, 0x20, 0x40):
        wbuf.push(addr)
    assert wbuf.drain_all() == 3
    assert wbuf.occupancy == 0


def test_write_buffer_tracks_max_occupancy():
    wbuf = WriteBuffer(CFG, entries=4)
    for addr in (0x0, 0x20, 0x40):
        wbuf.push(addr)
    assert wbuf.max_occupancy == 3


# ----------------------------------------------------------------------
# access counters
# ----------------------------------------------------------------------

def test_counters_rates():
    c = AccessCounters(
        accesses=10, tag_accesses=4, way_accesses=12,
        cache_hits=9, cache_misses=1, mab_lookups=8, mab_hits=6,
    )
    assert c.tags_per_access == pytest.approx(0.4)
    assert c.ways_per_access == pytest.approx(1.2)
    assert c.mab_hit_rate == pytest.approx(0.75)
    assert c.cache_hit_rate == pytest.approx(0.9)


def test_counters_zero_division_safe():
    c = AccessCounters()
    assert c.tags_per_access == 0.0
    assert c.mab_hit_rate == 0.0
    assert c.cache_hit_rate == 0.0


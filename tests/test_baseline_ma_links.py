"""Tests for the Ma et al. [11] link-based way-memoization baseline."""

import numpy as np
import pytest

from repro.baselines import MaLinksICache, PanwarICache
from repro.sim.fetch import FetchKind, FetchStream
from repro.workloads import load_workload, synthetic_fetch_stream

START, SEQ, BR, IND = (
    int(FetchKind.START), int(FetchKind.SEQ),
    int(FetchKind.BRANCH), int(FetchKind.INDIRECT),
)


def fetch(records):
    addr, kind, base, disp = zip(*records)
    return FetchStream(
        addr=np.asarray(addr, dtype=np.uint32),
        kind=np.asarray(kind, dtype=np.uint8),
        base=np.asarray(base, dtype=np.uint32),
        disp=np.asarray(disp, dtype=np.int32),
        packet_bytes=8,
    )


def test_sequential_link_learned_and_reused():
    # Cross the 0x00 -> 0x20 line boundary twice via a loop.
    circuit = [
        (0x18, BR, 0x100, 0x18 - 0x100),
        (0x20, SEQ, 0x18, 8),            # inter-line: learns the link
    ]
    fs = fetch([(0x100, START, 0x100, 0)] + circuit * 3)
    c = MaLinksICache().process(fs)
    # Circuit 1 learns (0x0 -> 0x20) SEQ; circuit 2's branch comes
    # from a different source line (0x20, not 0x100) and learns its
    # own link; from then on everything hits: SEQ in circuits 2-3 and
    # BR in circuit 3.
    assert c.mab_hits == 3
    assert c.stale_hits == 0


def test_branch_link_thrashes_on_two_targets():
    """One branch link per line: alternating targets never hit."""
    a = [(0x100, BR, 0x20, 0xE0)]
    b = [(0x200, BR, 0x20, 0x1E0)]
    base = [(0x20, START, 0x20, 0)]
    back = [(0x20, BR, 0x100, -0xE0)]
    fs = fetch(base + (a + back + b + back) * 4)
    c = MaLinksICache().process(fs)
    # Links from line 0x20 alternate between 0x100 and 0x200 and are
    # overwritten every time: only the returns (line 0x100/0x200 ->
    # 0x20) can hit.
    assert c.mab_hit_rate < 0.6


def test_link_invalidated_when_target_evicted():
    ctrl = MaLinksICache()
    cfg = ctrl.cache_config
    set_stride = cfg.sets * cfg.line_bytes
    target = 0x40
    conflict1 = target + set_stride
    conflict2 = target + 2 * set_stride
    fs = fetch([
        (0x0, START, 0x0, 0),
        (target, BR, 0x0, target),            # learn link 0x0 -> 0x40
        (conflict1, BR, target, set_stride),  # fill way 1 of the set
        (conflict2, BR, conflict1, set_stride),  # evicts 0x40's line
        (target, BR, conflict2, target - conflict2),  # must re-learn
    ])
    c = ctrl.process(fs)
    assert c.stale_hits == 0
    # The final access cannot hit a link: its target was evicted.
    assert c.mab_hits == 0


def test_no_stale_hits_on_real_workloads():
    for name in ("dct", "compress"):
        c = MaLinksICache().process(load_workload(name).fetch)
        assert c.stale_hits == 0
        assert c.mab_hit_rate > 0.5


def test_links_cut_tags_below_panwar():
    fs = synthetic_fetch_stream(num_blocks=600, seed=17)
    links = MaLinksICache().process(fs)
    panwar = PanwarICache().process(fs)
    assert links.tag_accesses < panwar.tag_accesses
    # But every access pays the link-bit read.
    assert links.aux_accesses == links.accesses


def test_functionality_unchanged(dct_workload):
    from repro.baselines import OriginalCache
    orig = OriginalCache().process(dct_workload.fetch)
    links = MaLinksICache().process(dct_workload.fetch)
    assert links.cache_hits == orig.cache_hits
    assert links.cache_misses == orig.cache_misses

"""Tests for the shared experiment runner machinery."""

import pytest

from repro.api import architectures
from repro.experiments.runner import (
    average,
    dcache_counters,
    dcache_power,
    geometric_mean,
    icache_counters,
    icache_power,
    savings,
)


def test_helpers():
    assert average([1, 2, 3]) == 2.0
    assert average([]) == 0.0
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert savings(10.0, 7.5) == pytest.approx(0.25)
    assert savings(0.0, 1.0) == 0.0


def test_counters_are_cached():
    a = dcache_counters("dct", "original")
    b = dcache_counters("dct", "original")
    assert a is b
    c = icache_counters("dct", "panwar")
    d = icache_counters("dct", "panwar")
    assert c is d


def test_every_registered_arch_runs_on_one_benchmark():
    for info in architectures("dcache"):
        counters = dcache_counters("whetstone", info.id)
        assert counters.accesses > 0
    for info in architectures("icache"):
        counters = icache_counters("whetstone", info.id)
        assert counters.accesses > 0


def test_power_breakdowns_have_positive_totals():
    for arch in ("original", "set-buffer", "way-memo-2x8"):
        p = dcache_power("whetstone", arch)
        assert p.total_mw > 0
    for arch in ("original", "panwar", "way-memo-2x16"):
        p = icache_power("whetstone", arch)
        assert p.total_mw > 0


def test_mab_archs_pay_mab_power_others_do_not():
    memo = dcache_power("whetstone", "way-memo-2x8")
    orig = dcache_power("whetstone", "original")
    assert memo.aux_mw > 0
    assert orig.aux_mw == 0.0


def test_aux_structures_are_charged():
    buffered = dcache_power("whetstone", "set-buffer")
    assert buffered.aux_mw > 0
    # Every design with a priced side structure pays for it.
    for info in architectures("dcache"):
        if info.resolved_aux_bits() or info.mab_geometry():
            assert dcache_power("whetstone", info.id).aux_mw > 0, info.id


def test_unknown_arch_raises():
    with pytest.raises(KeyError):
        dcache_counters("dct", "nonexistent")

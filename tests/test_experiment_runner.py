"""Tests for the shared experiment machinery: the table reductions and
per-design-point evaluation through ``repro.api``."""

import pytest

from repro.api import RunSpec, architectures, evaluate
from repro.experiments.reporting import average, geometric_mean, savings


def test_helpers():
    assert average([1, 2, 3]) == 2.0
    assert average([]) == 0.0
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert savings(10.0, 7.5) == pytest.approx(0.25)
    assert savings(0.0, 1.0) == 0.0


def test_counters_are_cached():
    """``evaluate`` caches per process by spec key: asking again
    returns the very same result object."""
    a = evaluate(RunSpec("dcache", "original", "dct"))
    b = evaluate(RunSpec("dcache", "original", "dct"))
    assert a is b
    c = evaluate(RunSpec("icache", "panwar", "dct"))
    d = evaluate(RunSpec("icache", "panwar", "dct"))
    assert c is d


def test_every_registered_arch_runs_on_one_benchmark():
    for side in ("dcache", "icache"):
        for info in architectures(side):
            counters = evaluate(RunSpec(side, info.id, "whetstone")).counters
            assert counters.accesses > 0


def test_power_breakdowns_have_positive_totals():
    for arch in ("original", "set-buffer", "way-memo-2x8"):
        p = evaluate(RunSpec("dcache", arch, "whetstone")).power
        assert p.total_mw > 0
    for arch in ("original", "panwar", "way-memo-2x16"):
        p = evaluate(RunSpec("icache", arch, "whetstone")).power
        assert p.total_mw > 0


def test_mab_archs_pay_mab_power_others_do_not():
    memo = evaluate(RunSpec("dcache", "way-memo-2x8", "whetstone")).power
    orig = evaluate(RunSpec("dcache", "original", "whetstone")).power
    assert memo.aux_mw > 0
    assert orig.aux_mw == 0.0


def test_aux_structures_are_charged():
    buffered = evaluate(RunSpec("dcache", "set-buffer", "whetstone")).power
    assert buffered.aux_mw > 0
    # Every design with a priced side structure pays for it.
    for info in architectures("dcache"):
        if info.aux_bits is not None or info.design_point().mab:
            power = evaluate(RunSpec("dcache", info.id, "whetstone")).power
            assert power.aux_mw > 0, info.id


def test_unknown_arch_raises():
    with pytest.raises(KeyError):
        evaluate(RunSpec("dcache", "nonexistent", "dct"))

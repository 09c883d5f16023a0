"""Fast engine vs. reference engine differential tests.

The fast engine (the replay engine behind every controller's
``process``, block-compiling ISS) must be *bit-for-bit* equivalent to
the retained reference implementations:

* :meth:`WayMemoDCache.process` vs. :meth:`process_reference`
* :meth:`WayMemoICache.process` vs. :meth:`process_reference`
* every design in the architecture registry — each parametric entry
  at a sampled set of MAB geometries — ``process`` vs. its
  ``process_reference``, so a newly registered design cannot skip the
  oracle (an entry without a reference fails it)
* ``CPU.run(engine="fast")`` vs. ``CPU.run(engine="interp")``

Equivalence is asserted on every :class:`AccessCounters` field
(including ``stale_hits``, ``way_accesses`` and ``tag_accesses``; a
design's ``process`` derives over shadow caches and leaves the
controller as built, so the way-memo tests check the reference MAB's
invariants instead) — and, for the ISS, registers, memory, data and
flow traces, the instruction mix and the instruction count, over all
bundled workloads plus seeded synthetic traffic that exercises
bypasses, stores and evictions.
"""

import random
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.api import architectures
from repro.cache.stats import COUNTER_FIELDS
from repro.core import MABConfig, WayMemoDCache, WayMemoICache
from repro.isa import assemble
from repro.sim import CPU, CPUError, run_program
from repro.workloads import (
    BENCHMARK_NAMES,
    get_benchmark,
    synthetic_data_trace,
    synthetic_fetch_stream,
)


def assert_counters_equal(fast, ref, context=""):
    for field in COUNTER_FIELDS:
        assert getattr(fast, field) == getattr(ref, field), (
            f"{context}: counter {field}: fast={getattr(fast, field)} "
            f"ref={getattr(ref, field)}"
        )
    assert fast.notes == ref.notes, context


def _policy_state(policy):
    """A replacement policy's state: LRU stacks, FIFO pointers, PLRU
    trees or the random policy's RNG state."""
    return {
        name: value.getstate() if isinstance(value, random.Random)
        else value
        for name, value in vars(policy).items()
    }


def assert_cache_state_equal(fc, rc, context=""):
    """Final flat cache state, replacement state and cache counters
    must match exactly."""
    assert fc._tags == rc._tags, f"{context}: cache tag arrays differ"
    assert (fc.hits, fc.misses, fc.evictions) == (
        rc.hits, rc.misses, rc.evictions
    ), f"{context}: cache counters differ"
    assert _policy_state(fc.policy) == _policy_state(rc.policy), (
        f"{context}: replacement state differs"
    )


# ----------------------------------------------------------------------
# the registry-driven design matrix
# ----------------------------------------------------------------------

#: (Nt, Ns) samples standing in for each parametric registry entry:
#: a one-entry tag side with a deep index side, and more tag entries
#: than the 2-way caches have ways (which lets memoizations go stale).
PARAMETRIC_SAMPLES = ((1, 32), (4, 4))


def _registry_designs(side):
    """Every registered design of one side: id -> (info, params)."""
    designs = {}
    for info in architectures(side):
        if not info.parametric:
            designs[info.id] = (info, {})
            continue
        for nt, ns in PARAMETRIC_SAMPLES:
            designs[f"{info.id}-{nt}x{ns}"] = (
                info, {"tag_entries": nt, "index_entries": ns},
            )
    return designs


DESIGNS = {side: _registry_designs(side) for side in ("dcache", "icache")}


def build_design(side, design, cache_config=None, **params):
    """A fresh controller for one registry design, optionally on
    another cache geometry or with parameter overrides."""
    info, base = DESIGNS[side][design]
    if cache_config is None:
        return info.build({**base, **params})
    point = info.design_point({**base, **params})
    return info.controller_class().from_point(
        replace(point, cache=cache_config)
    )


@pytest.mark.parametrize("side", ("dcache", "icache"))
def test_every_design_has_exactly_one_fast_path(side):
    """Every registered design registers its fast path beside its
    class, so the engine drives each through the same call."""
    for info in architectures(side):
        assert info.controller_class().derive is not None, info.id


@lru_cache(maxsize=None)
def _workload_runs(side, design, name):
    """(fast controller, counters, reference controller, counters) for
    one design on one bundled workload, shared by every test asking."""
    from repro.workloads import load_workload

    workload = load_workload(name)
    stream = workload.trace.data if side == "dcache" else workload.fetch
    fast = build_design(side, design)
    ref = build_design(side, design)
    return fast, fast.process(stream), ref, ref.process_reference(stream)


# ----------------------------------------------------------------------
# controllers: synthetic traffic
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed,large,stores", [
    (1, 0.0, 0.3),
    (2, 0.05, 0.3),   # bypass traffic exercises the column-clear rule
    (3, 0.0, 1.0),    # all stores
    (4, 0.5, 0.0),    # heavy bypass, all loads
])
def test_dcache_fast_matches_reference_synthetic(seed, large, stores):
    trace = synthetic_data_trace(
        num_accesses=6_000, seed=seed,
        large_disp_fraction=large, store_fraction=stores,
    )
    fast = WayMemoDCache()
    ref = WayMemoDCache()
    cf = fast.process(trace)
    cr = ref.process_reference(trace)
    assert_counters_equal(cf, cr, f"dcache seed={seed}")
    ref.mab.check_invariants()


@pytest.mark.parametrize("consistency", ["paper", "evict_hook"])
def test_dcache_fast_matches_reference_evict_hook(consistency):
    trace = synthetic_data_trace(num_accesses=6_000, seed=11)
    config = MABConfig(2, 8, consistency=consistency)
    fast = WayMemoDCache(mab_config=config)
    ref = WayMemoDCache(mab_config=config)
    assert_counters_equal(
        fast.process(trace), ref.process_reference(trace), consistency
    )
    ref.mab.check_invariants()


@pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
def test_dcache_fast_matches_reference_policies(policy):
    trace = synthetic_data_trace(num_accesses=4_000, seed=21)
    fast = WayMemoDCache(policy=policy)
    ref = WayMemoDCache(policy=policy)
    assert_counters_equal(
        fast.process(trace), ref.process_reference(trace), policy
    )
    ref.mab.check_invariants()


@pytest.mark.parametrize("ns", [4, 16])
def test_dcache_fast_matches_reference_mab_sizes(ns):
    trace = synthetic_data_trace(num_accesses=4_000, seed=31)
    fast = WayMemoDCache(mab_config=MABConfig(2, ns))
    ref = WayMemoDCache(mab_config=MABConfig(2, ns))
    assert_counters_equal(
        fast.process(trace), ref.process_reference(trace), f"2x{ns}"
    )
    ref.mab.check_invariants()


def test_icache_fast_matches_reference_synthetic():
    fs = synthetic_fetch_stream(num_blocks=1_500, seed=13)
    fast = WayMemoICache()
    ref = WayMemoICache()
    assert_counters_equal(fast.process(fs), ref.process_reference(fs))
    ref.mab.check_invariants()


def test_icache_fast_matches_reference_large_offsets():
    fs = synthetic_fetch_stream(
        num_blocks=800, seed=17,
        branch_offsets=[-(1 << 15), 1 << 15, 64, -64],
    )
    fast = WayMemoICache()
    ref = WayMemoICache()
    cf = fast.process(fs)
    cr = ref.process_reference(fs)
    assert cr.mab_bypasses > 0, "offsets should force bypasses"
    assert_counters_equal(cf, cr)
    ref.mab.check_invariants()


def test_dcache_fast_matches_reference_on_stale_hits():
    """Stale MAB hits must account identically in both engines.

    With more tag entries than cache ways the paper's consistency
    argument no longer holds, so a deterministic conflict sequence
    forces a stale hit: tags 1, 2, 3 map to set 0 of the 2-way cache
    (evicting tag 1) while the 4-entry MAB keeps all three pairs
    valid; re-accessing tag 1 is a MAB hit whose memoized way now
    holds tag 3.  Regression for the fast engine forgetting to count
    stale hits in ``MAB.hits`` (the reference lookup counts every
    vflag match, verified or not).
    """
    from repro.sim.trace import DataTrace

    trace = DataTrace.from_lists(
        [t << 14 for t in (1, 2, 3, 1)], [0] * 4, [False] * 4
    )
    config = MABConfig(4, 8)
    fast = WayMemoDCache(mab_config=config)
    ref = WayMemoDCache(mab_config=config)
    cf = fast.process(trace)
    cr = ref.process_reference(trace)
    assert cr.stale_hits == 1, "sequence must actually go stale"
    assert_counters_equal(cf, cr, "stale")
    ref.mab.check_invariants()


def test_paper_mode_goes_stale_with_tag_entries_equal_to_ways():
    """Nt <= ways does not rule out stale hits in paper mode.

    Keys A, B, C differ in their tags; all three lines map to set 0 of
    the 2-way FR-V D-cache.  The third access reuses A's tag-side key
    through set 1 (displacement 32), so with Nt = 2 the fourth access
    (C) evicts B's tag entry, not A's, while the cache evicts line A
    from set 0.  The pair (A, set 0) stays valid, and the fifth access
    is a MAB hit whose memoized way now holds C.  This is the
    derivation's "key refreshed through another set" path.
    """
    from repro.sim.trace import DataTrace

    trace = DataTrace.from_lists(
        [1 << 14, 2 << 14, 1 << 14, 3 << 14, 1 << 14],
        [0, 0, 32, 0, 0], [False] * 5,
    )
    config = MABConfig(2, 8, "paper")
    ref = WayMemoDCache(mab_config=config)
    cf = WayMemoDCache(mab_config=config).process(trace)
    cr = ref.process_reference(trace)
    assert cr.stale_hits == 1
    assert_counters_equal(cf, cr, "paper-mode stale")
    ref.mab.check_invariants()


# ----------------------------------------------------------------------
# controllers: every bundled workload
# ----------------------------------------------------------------------

def test_dcache_fast_matches_reference_on_workload(workload):
    fast, cf, ref, cr = _workload_runs(
        "dcache", "way-memo-2x8", workload.name
    )
    assert type(fast) is WayMemoDCache
    assert_counters_equal(cf, cr, workload.name)
    ref.mab.check_invariants()


def test_icache_fast_matches_reference_on_workload(workload):
    fast, cf, ref, cr = _workload_runs(
        "icache", "way-memo-2x16", workload.name
    )
    assert type(fast) is WayMemoICache
    assert_counters_equal(cf, cr, workload.name)
    ref.mab.check_invariants()


# ----------------------------------------------------------------------
# every registered design, every bundled workload
# ----------------------------------------------------------------------

@pytest.mark.parametrize("arch", sorted(DESIGNS["dcache"]))
def test_dcache_baseline_fast_matches_reference_on_workload(arch, workload):
    _, cf, _, cr = _workload_runs("dcache", arch, workload.name)
    assert_counters_equal(cf, cr, f"{arch}/{workload.name}")


@pytest.mark.parametrize("arch", sorted(DESIGNS["icache"]))
def test_icache_baseline_fast_matches_reference_on_workload(arch, workload):
    _, cf, _, cr = _workload_runs("icache", arch, workload.name)
    assert_counters_equal(cf, cr, f"{arch}/{workload.name}")


@pytest.mark.parametrize("arch", sorted(DESIGNS["dcache"]))
@pytest.mark.parametrize("seed,stores", [(41, 0.3), (42, 1.0), (43, 0.0)])
def test_dcache_baseline_fast_matches_reference_synthetic(
    arch, seed, stores
):
    trace = synthetic_data_trace(
        num_accesses=5_000, seed=seed, store_fraction=stores,
        num_bases=8, base_region_bytes=1 << 15,
    )
    fast = build_design("dcache", arch)
    ref = build_design("dcache", arch)
    cf = fast.process(trace)
    cr = ref.process_reference(trace)
    assert_counters_equal(cf, cr, f"{arch} seed={seed}")


@pytest.mark.parametrize("arch", sorted(DESIGNS["icache"]))
def test_icache_baseline_fast_matches_reference_synthetic(arch):
    # A tiny cache under a wide text footprint forces conflict
    # evictions, exercising the miss/eviction paths (and ma-links'
    # reverse-index invalidation).
    from repro.cache.config import CacheConfig

    small = CacheConfig(size_bytes=2048, ways=2, line_bytes=32)
    fs = synthetic_fetch_stream(
        num_blocks=1_500, seed=23, text_bytes=1 << 18, num_targets=24,
    )
    fast = build_design("icache", arch, small)
    ref = build_design("icache", arch, small)
    cf = fast.process(fs)
    cr = ref.process_reference(fs)
    assert ref.cache.evictions > 0, "stream should evict"
    assert_counters_equal(cf, cr, arch)


# ----------------------------------------------------------------------
# ISS: fast block engine vs. reference interpreter
# ----------------------------------------------------------------------

def assert_runs_equal(fast, interp, context=""):
    assert fast.halted == interp.halted, context
    assert fast.instructions == interp.instructions, context
    assert fast.registers == interp.registers, context
    assert fast.memory.read_bytes(0, fast.memory.size) == (
        interp.memory.read_bytes(0, interp.memory.size)
    ), f"{context}: memory differs"
    tf, ti = fast.trace, interp.trace
    assert tf.mix == ti.mix, f"{context}: instruction mix differs"
    for attr in ("base", "disp", "store"):
        assert np.array_equal(
            getattr(tf.data, attr), getattr(ti.data, attr)
        ), f"{context}: data trace {attr} differs"
    for attr in ("start", "count", "kind", "base", "disp"):
        assert np.array_equal(
            getattr(tf.flow, attr), getattr(ti.flow, attr)
        ), f"{context}: flow trace {attr} differs"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_iss_engines_agree_on_workload(name):
    program = get_benchmark(name).build()
    fast = run_program(program, engine="fast")
    interp = run_program(program, engine="interp")
    assert_runs_equal(fast, interp, name)


ISS_CASES = {
    "tight_self_loop": """
main:
    li t0, 0
    li t1, 500
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""",
    "loop_with_memory": """
main:
    la t0, buf
    li t1, 0
    li t2, 16
loop:
    slli t3, t1, 2
    add t3, t0, t3
    sw t1, 0(t3)
    lw t4, 0(t3)
    add t5, t5, t4
    addi t1, t1, 1
    blt t1, t2, loop
    halt
.data
buf: .space 64
""",
    "nested_calls": """
main:
    li s0, 0
    li s1, 5
outer_loop:
    call accum
    addi s0, s0, 1
    blt s0, s1, outer_loop
    halt
accum:
    addi sp, sp, -4
    sw ra, 0(sp)
    call leaf
    lw ra, 0(sp)
    addi sp, sp, 4
    ret
leaf:
    addi t6, t6, 3
    ret
""",
    "branch_into_loop_middle": """
main:
    li t0, 0
    li t1, 30
    j mid
loop:
    addi t0, t0, 2
mid:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""",
    "mixed_alu": """
main:
    li t0, -7
    li t1, 3
    div t2, t0, t1
    rem t3, t0, t1
    mulh t4, t0, t1
    sra t5, t0, t1
    sltu t6, t0, t1
    lui s2, 0x1234
    halt
""",
}


@pytest.mark.parametrize("case", sorted(ISS_CASES))
def test_iss_engines_agree_on_program(case):
    program = assemble(ISS_CASES[case])
    fast = run_program(program, engine="fast")
    interp = run_program(program, engine="interp")
    assert_runs_equal(fast, interp, case)


def test_iss_engines_agree_after_recompile_cache():
    """A second run on the same Program reuses compiled blocks."""
    program = assemble(ISS_CASES["tight_self_loop"])
    first = run_program(program, engine="fast")
    second = run_program(program, engine="fast")
    assert_runs_equal(first, second, "recompile")


def test_iss_fast_engine_raises_on_runaway():
    program = assemble("main:\nloop:\n    j loop\n")
    with pytest.raises(CPUError, match="runaway"):
        run_program(program, max_instructions=1000, engine="fast")


def test_iss_fast_engine_raises_on_runaway_self_loop():
    program = assemble("""
main:
    li t0, 0
    li t1, 1000000
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""")
    with pytest.raises(CPUError, match="runaway"):
        run_program(program, max_instructions=500, engine="fast")


def test_iss_fast_engine_raises_on_bad_jalr_target():
    program = assemble("""
main:
    li t0, 0x1000
    jalr zero, t0, 0
""")
    with pytest.raises(CPUError, match="text segment"):
        run_program(program, engine="fast")


def test_iss_unknown_engine_rejected():
    program = assemble("main:\n    halt\n")
    with pytest.raises(ValueError, match="unknown engine"):
        CPU(program).run(engine="warp")

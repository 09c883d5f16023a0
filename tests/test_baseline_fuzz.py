"""Randomized fuzzing of every registered design's fast engine.

Each test drives a freshly seeded access stream through the replay
engine — a design's ``process``, or one grouped pass over many
designs — and through each design's ``process_reference``, comparing
every :class:`AccessCounters` field.  On a divergence the harness
re-runs growing stream prefixes and reports the first offending access
index, so a kernel bug pinpoints the exact reference the two engines
disagree on.

The streams deliberately hammer a tiny cache (heavy conflict misses
and evictions, stores included) and include a 4-way geometry so the
generic (non-2-way) scan paths of the batch kernel are fuzzed too.
The designs come from the architecture registry
(:data:`test_fastpath_differential.DESIGNS`), so a newly registered
design is fuzzed without being listed here.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.baselines import OriginalCache
from repro.cache.config import CacheConfig
from repro.cache.stats import COUNTER_FIELDS
from repro.sim.fetch import FetchStream
from repro.sim.trace import DataTrace
from repro.workloads import synthetic_fetch_stream, synthetic_kinds

from test_fastpath_differential import (
    DESIGNS,
    assert_cache_state_equal,
    assert_counters_equal,
    build_design,
)

#: Small geometries that evict constantly under the fuzz streams.
TINY_2WAY = CacheConfig(size_bytes=1024, ways=2, line_bytes=32)
TINY_4WAY = CacheConfig(size_bytes=2048, ways=4, line_bytes=32)
#: The direct-mapped and 8-way ends of extension_associativity's sweep.
TINY_1WAY = CacheConfig(size_bytes=512, ways=1, line_bytes=32)
TINY_8WAY = CacheConfig(size_bytes=4096, ways=8, line_bytes=32)

#: Prefix step of the divergence search (prime, so probe boundaries
#: drift across the stream's block structure instead of aligning with
#: it).
CHUNK = 257

NUM_ACCESSES = 4_000


def registry_factories(side, config, **params):
    """Zero-argument factories for every registered design of a side."""
    return {
        design: partial(build_design, side, design, config, **params)
        for design in DESIGNS[side]
    }


# ----------------------------------------------------------------------
# stream generators and slicers
# ----------------------------------------------------------------------

def fuzz_data_trace(seed: int, n: int = NUM_ACCESSES) -> DataTrace:
    """Loads/stores over a region a tiny cache cannot hold."""
    rng = np.random.default_rng(seed)
    # ~8x the tiny cache size, word-aligned, mixed loads/stores.
    base = (0x40000 + rng.integers(0, 2048, size=n) * 4).astype(np.uint32)
    disp = (rng.integers(0, 16, size=n) * 4).astype(np.int32)
    store = rng.random(n) < 0.4
    return DataTrace(base=base, disp=disp, store=store)


def fuzz_fetch_stream(seed: int) -> FetchStream:
    """Branchy fetch traffic over a text footprint that evicts."""
    return synthetic_fetch_stream(
        num_blocks=NUM_ACCESSES // 4, seed=seed,
        text_bytes=1 << 15, num_targets=32,
    )


def slice_data(trace: DataTrace, lo: int, hi: int) -> DataTrace:
    return DataTrace(
        base=trace.base[lo:hi], disp=trace.disp[lo:hi],
        store=trace.store[lo:hi],
    )


def slice_fetch(fs: FetchStream, lo: int, hi: int) -> FetchStream:
    return FetchStream(
        addr=fs.addr[lo:hi], kind=fs.kind[lo:hi], base=fs.base[lo:hi],
        disp=fs.disp[lo:hi], packet_bytes=fs.packet_bytes,
    )


# ----------------------------------------------------------------------
# replay harness
# ----------------------------------------------------------------------

def _diff_counters(cf, cr):
    return [
        (field, getattr(cf, field), getattr(cr, field))
        for field in COUNTER_FIELDS
        if getattr(cf, field) != getattr(cr, field)
    ]


def _first_replay_divergence(factories, stream, slicer, total,
                             method="process"):
    """First access index where grouped and per-arch replay diverge.

    Every probe rebuilds both legs from scratch over the prefix — the
    engine has no incremental mode — scanning chunk ends first and
    then linearly inside the first bad chunk.
    """
    from repro.replay.engine import replay_counters

    def probe(n):
        prefix = slicer(stream, 0, n)
        grouped = replay_counters(
            [factory() for factory in factories.values()], prefix
        )
        for (name, factory), got in zip(factories.items(), grouped):
            expected = getattr(factory(), method)(prefix)
            mismatches = _diff_counters(got, expected)
            if mismatches:
                return name, mismatches
        return None

    bad_end = next(
        (
            min(hi, total)
            for hi in range(CHUNK, total + CHUNK, CHUNK)
            if probe(min(hi, total)) is not None
        ),
        None,
    )
    if bad_end is None:
        return None
    for n in range(max(0, bad_end - CHUNK) + 1, bad_end + 1):
        found = probe(n)
        if found is not None:
            return n - 1, found
    return None


def run_replay_lockstep(factories, stream, slicer, total, context,
                        method="process"):
    """One grouped pass vs fresh per-arch replays, field by field.

    ``method`` selects the per-arch leg: ``process`` (the design
    replayed alone, a singleton engine call) or ``process_reference``
    (the executable specification — the strongest check).  A group of
    one design is exactly that design's ``process``.
    """
    from repro.replay.engine import replay_counters

    grouped = replay_counters(
        [factory() for factory in factories.values()], stream
    )
    mismatched = {}
    for (name, factory), got in zip(factories.items(), grouped):
        diff = _diff_counters(got, getattr(factory(), method)(stream))
        if diff:
            mismatched[name] = diff
    if not mismatched:
        return
    where = _first_replay_divergence(
        factories, stream, slicer, total, method
    )
    index = "unknown" if where is None else where[0]
    detail = "; ".join(
        f"{name}: " + ", ".join(
            f"{f}: grouped={a} {method}={b}" for f, a, b in diff
        )
        for name, diff in mismatched.items()
    )
    pytest.fail(
        f"{context}: grouped/{method} replay divergence, first at "
        f"access index {index}: {detail}"
    )


# ----------------------------------------------------------------------
# the fuzz matrix: every registered design vs its reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("arch", sorted(DESIGNS["dcache"]))
def test_fuzz_dcache_baseline(arch, seed, config):
    trace = fuzz_data_trace(seed)
    run_replay_lockstep(
        {arch: partial(build_design, "dcache", arch, config)},
        trace, slice_data, len(trace),
        f"{arch} seed={seed} ways={config.ways}",
        method="process_reference",
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [303, 404])
@pytest.mark.parametrize("arch", sorted(DESIGNS["icache"]))
def test_fuzz_icache_baseline(arch, seed, config):
    fs = fuzz_fetch_stream(seed)
    run_replay_lockstep(
        {arch: partial(build_design, "icache", arch, config)},
        fs, slice_fetch, len(fs),
        f"{arch} seed={seed} ways={config.ways}",
        method="process_reference",
    )


def test_fuzz_streams_actually_stress_the_cache():
    """The fuzz traffic must exercise misses, evictions and stores."""
    ctrl = OriginalCache(TINY_2WAY)
    counters = ctrl.process_reference(fuzz_data_trace(101))
    assert counters.cache_misses > 100
    assert ctrl.cache.evictions > 100
    assert counters.stores > 0

    ictrl = OriginalCache(TINY_2WAY)
    icounters = ictrl.process_reference(fuzz_fetch_stream(303))
    assert icounters.cache_misses > 100
    assert ictrl.cache.evictions > 100


def test_way_memo_dcache_lockstep_fuzz():
    """The way-memo controller on the default geometry, state included."""
    from repro.core import WayMemoDCache

    trace = fuzz_data_trace(515)
    run_replay_lockstep(
        {"way-memo": WayMemoDCache}, trace, slice_data, len(trace),
        "way-memo", method="process_reference",
    )


#: Designs sweep a fresh shadow cache keyed by (geometry, replacement
#: policy), so every policy gets its own shared sweep; the filter cache
#: runs its L1 queue, in order, through a shadow cache of its own.
NON_LRU_POLICIES = ("fifo", "plru", "random")


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("policy", NON_LRU_POLICIES)
def test_every_design_matches_reference_under_non_lru_policies(
    policy, config
):
    for side, stream, slicer in (
        ("dcache", fuzz_data_trace(101), slice_data),
        ("icache", fuzz_fetch_stream(303), slice_fetch),
    ):
        factories = registry_factories(side, config, policy=policy)
        assert "filter-cache" in factories, side
        context = f"{side} policy={policy} ways={config.ways}"
        for design, factory in factories.items():
            run_replay_lockstep(
                {design: factory}, stream, slicer, len(stream),
                f"{design} {context}", method="process_reference",
            )
        # ...and the whole set as one group sharing a single sweep.
        run_replay_lockstep(
            factories, stream, slicer, len(stream), context,
            method="process_reference",
        )


@pytest.mark.parametrize("l0_lines", [1, 8])
@pytest.mark.parametrize("policy", ["lru", *NON_LRU_POLICIES])
@pytest.mark.parametrize(
    "config", [TINY_1WAY, TINY_2WAY, TINY_4WAY, TINY_8WAY],
    ids=["1way", "2way", "4way", "8way"],
)
def test_filter_cache_process_starts_cold_and_leaves_the_instance(
    config, policy, l0_lines
):
    """``process`` on a filter cache starts from a cold L1 and an empty
    L0 on every call: two successive calls on one instance each match
    a fresh controller's ``process_reference``, and leave the
    instance's cache and L0 exactly as built."""
    data = fuzz_data_trace(808)
    fetch = fuzz_fetch_stream(909)
    half = {"dcache": len(data) // 2, "icache": len(fetch) // 2}
    calls = {
        "dcache": [
            slice_data(data, 0, half["dcache"]),
            slice_data(data, half["dcache"], len(data)),
        ],
        "icache": [
            slice_fetch(fetch, 0, half["icache"]),
            slice_fetch(fetch, half["icache"], len(fetch)),
        ],
    }
    for side, streams in calls.items():
        def build():
            return build_design(
                side, "filter-cache", config, policy=policy,
                l0_lines=l0_lines,
            )

        controller, built = build(), build()
        for index, stream in enumerate(streams):
            context = (
                f"{side} ways={config.ways} policy={policy} "
                f"l0_lines={l0_lines} call {index}"
            )
            assert_counters_equal(
                controller.process(stream),
                build().process_reference(stream), context,
            )
            assert_cache_state_equal(
                controller.cache, built.cache, context
            )
            assert controller._l0 == [], context


# ----------------------------------------------------------------------
# grouped replay vs each design replayed alone
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [101, 202])
def test_fuzz_dcache_replay_matches_scalar(seed, config):
    trace = fuzz_data_trace(seed)
    run_replay_lockstep(
        registry_factories("dcache", config), trace, slice_data,
        len(trace), f"dcache replay seed={seed} ways={config.ways}",
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [303, 404])
def test_fuzz_icache_replay_matches_scalar(seed, config):
    fs = fuzz_fetch_stream(seed)
    run_replay_lockstep(
        registry_factories("icache", config), fs, slice_fetch,
        len(fs), f"icache replay seed={seed} ways={config.ways}",
    )


# ----------------------------------------------------------------------
# derived designs vs the executable specification
# ----------------------------------------------------------------------

def way_memo(side, tag_entries, index_entries, consistency="paper"):
    """A way-memo factory at any MAB geometry (the parametric entry)."""
    return partial(
        build_design, side, "way-memo-4x4", tag_entries=tag_entries,
        index_entries=index_entries, consistency=consistency,
    )


def way_memo_variants(side):
    """MAB geometries around the 2-way fuzz caches: one tag entry,
    more tag entries than ways (so memoizations go stale), a MAB far
    larger than the cache, and the eviction-hook consistency mode."""
    return {
        "way-memo-1x4": way_memo(side, 1, 4),
        "way-memo-4x4": way_memo(side, 4, 4),
        "way-memo-8x64": way_memo(side, 8, 64),
        "way-memo-2x8-evict": way_memo(side, 2, 8, "evict_hook"),
    }


def line_buffer(entries, consistency="paper"):
    """A way-memo + line-buffer factory at any buffer depth."""
    return partial(
        build_design, "dcache", "way-memo+line-buffer",
        line_buffer_entries=entries, consistency=consistency,
    )


#: The designs whose counters are *derived* rather than replayed
#: scalar — set buffer, MA-links, way memoization and the line buffer
#: from the shared sweep, the filter cache from the columnar run walk
#: — including non-default set-buffer and line-buffer depths (deeper
#: line buffers see the sweep's evictions) and several MAB geometries,
#: each one fuzzed directly against ``process_reference``.
DERIVED_DCACHE = {
    "set-buffer": partial(build_design, "dcache", "set-buffer"),
    "set-buffer-3": partial(
        build_design, "dcache", "set-buffer", entries=3
    ),
    "filter-cache": partial(build_design, "dcache", "filter-cache"),
    **way_memo_variants("dcache"),
    "line-buffer-1": line_buffer(1),
    "line-buffer-2": line_buffer(2),
    "line-buffer-4-evict": line_buffer(4, "evict_hook"),
}

DERIVED_ICACHE = {
    "ma-links": partial(build_design, "icache", "ma-links"),
    "filter-cache": partial(build_design, "icache", "filter-cache"),
    **way_memo_variants("icache"),
}


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("arch", sorted(DERIVED_DCACHE))
def test_fuzz_dcache_replay_matches_reference(arch, seed, config):
    trace = fuzz_data_trace(seed)
    factory = DERIVED_DCACHE[arch]
    run_replay_lockstep(
        {arch: partial(factory, config)}, trace, slice_data, len(trace),
        f"{arch} vs reference seed={seed} ways={config.ways}",
        method="process_reference",
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [303, 404])
@pytest.mark.parametrize("arch", sorted(DERIVED_ICACHE))
def test_fuzz_icache_replay_matches_reference(arch, seed, config):
    fs = fuzz_fetch_stream(seed)
    factory = DERIVED_ICACHE[arch]
    run_replay_lockstep(
        {arch: partial(factory, config)}, fs, slice_fetch, len(fs),
        f"{arch} vs reference seed={seed} ways={config.ways}",
        method="process_reference",
    )


@pytest.mark.parametrize("entries", [2, 3, 4])
def test_deep_line_buffer_matches_reference_on_a_conflict_stream(entries):
    """Six lines crowding two sets of the tiny 2-way cache: lines the
    cache evicts are revisited while still within the buffer's depth,
    so the derivation must drop every line the sweep evicts."""
    rng = np.random.default_rng(entries)
    n = 3000
    sets = TINY_2WAY.sets
    lines = rng.integers(0, 3, size=n) * sets + rng.integers(0, 2, size=n)
    base = (0x40000 + lines * TINY_2WAY.line_bytes).astype(np.uint32)
    disp = (rng.integers(0, 8, size=n) * 4).astype(np.int32)
    trace = DataTrace(base=base, disp=disp, store=rng.random(n) < 0.4)
    factories = {
        f"line-buffer-{entries}-{mode}": partial(
            line_buffer(entries, mode), TINY_2WAY
        )
        for mode in ("paper", "evict_hook")
    }
    run_replay_lockstep(
        factories, trace, slice_data, n,
        f"line buffer entries={entries}", method="process_reference",
    )


@pytest.mark.parametrize("config", [TINY_1WAY, TINY_8WAY],
                         ids=["1way", "8way"])
def test_way_memo_matches_reference_at_associativity_extremes(config):
    """The MAB derivation on the direct-mapped and 8-way caches that
    extension_associativity sweeps, both sides, one grouped pass."""
    for side, stream, slicer in (
        ("dcache", fuzz_data_trace(606), slice_data),
        ("icache", fuzz_fetch_stream(707), slice_fetch),
    ):
        factories = {
            name: partial(factory, config)
            for name, factory in way_memo_variants(side).items()
        }
        run_replay_lockstep(
            factories, stream, slicer, len(stream),
            f"way-memo {side} ways={config.ways}",
            method="process_reference",
        )


def test_every_design_matches_reference_on_an_empty_stream():
    empty = {
        "dcache": slice_data(fuzz_data_trace(1), 0, 0),
        "icache": slice_fetch(fuzz_fetch_stream(1), 0, 0),
    }
    for side, stream in empty.items():
        factories = {
            **registry_factories(side, TINY_2WAY),
            **(DERIVED_DCACHE if side == "dcache" else DERIVED_ICACHE),
        }
        for name, factory in factories.items():
            got = factory().process(stream)
            expected = factory().process_reference(stream)
            assert got == expected, (side, name)


# ----------------------------------------------------------------------
# every synthetic generator kind joins the replay fuzz
# ----------------------------------------------------------------------

def _kind_stream(cache, kind):
    from repro.workloads import generate_synthetic

    size = (
        {"num_accesses": 2000} if cache == "dcache"
        else {"num_fetches": 2000} if kind == "mab-thrash"
        else {"num_blocks": 400}
    )
    return generate_synthetic(
        cache, {"kind": kind, "seed": 909, **size}
    )


@pytest.mark.parametrize("kind", synthetic_kinds("dcache"))
def test_generator_kind_dcache_replay_matches_scalar(kind):
    trace = _kind_stream("dcache", kind)
    run_replay_lockstep(
        registry_factories("dcache", TINY_2WAY), trace, slice_data,
        len(trace), f"dcache replay kind={kind}",
    )


@pytest.mark.parametrize("kind", synthetic_kinds("icache"))
def test_generator_kind_icache_replay_matches_scalar(kind):
    fs = _kind_stream("icache", kind)
    run_replay_lockstep(
        registry_factories("icache", TINY_2WAY), fs, slice_fetch,
        len(fs), f"icache replay kind={kind}",
    )


def test_way_prediction_lockstep_on_thrash_stream():
    """The vectorized MRU derivation survives adversarial traffic
    (every set group re-entered over and over)."""
    trace = _kind_stream("dcache", "mab-thrash")
    run_replay_lockstep(
        {"way-prediction": partial(
            build_design, "dcache", "way-prediction", TINY_2WAY
        )},
        trace, slice_data, len(trace), "way-prediction mab-thrash",
        method="process_reference",
    )
    fs = _kind_stream("icache", "mab-thrash")
    run_replay_lockstep(
        {"way-prediction": partial(
            build_design, "icache", "way-prediction", TINY_4WAY
        )},
        fs, slice_fetch, len(fs), "way-prediction mab-thrash icache",
        method="process_reference",
    )

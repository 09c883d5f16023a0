"""Tests for the single-pass multi-architecture replay engine.

Locks down the tentpole contracts: a grouped ``replay_counters`` pass
reproduces each architecture's own singleton ``process`` exactly (the
designs reading the shared sweep share literally one batch sweep per
geometry and policy); ``plan_groups`` partitions batches
deterministically; ``evaluate_many`` routes shared-workload groups
through the engine byte-identically to evaluating each spec alone,
with unchanged per-spec simulation accounting and store write-back;
and the columnar pre-split is memoized per dependency, not per
geometry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import (
    CACHE_SIDES,
    RunSpec,
    architectures,
    clear_result_cache,
    evaluate,
    evaluate_many,
)
from repro.api.evaluate import simulation_count
from repro.cache.cache import stable_argsort
from repro.cache.config import CacheConfig
from repro.cache.stats import AccessCounters
from repro.replay.columns import DataColumns, FetchColumns, repeat_pairs
from repro.replay.engine import (
    plan_groups, replay_counters, replay_specs, stream_accesses,
)
from repro.sim.trace import DataTrace
from repro.store import STORE_ENV, default_store, reset_default_stores
from repro.workloads import synthetic_data_trace, synthetic_fetch_stream

TINY = {
    "dcache": "synthetic:num_accesses=512,seed=11",
    "icache": "synthetic:num_blocks=64,block_packets=4,seed=11",
}


def _spec(arch, side="dcache", **kwargs):
    return RunSpec(cache=side, arch=arch, workload=TINY[side], **kwargs)


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    path = tmp_path / "results.sqlite"
    monkeypatch.setenv(STORE_ENV, str(path))
    reset_default_stores()
    clear_result_cache()
    store = default_store()
    assert store is not None
    yield store
    clear_result_cache()
    reset_default_stores()


# ----------------------------------------------------------------------
# kernel-level engine
# ----------------------------------------------------------------------

@pytest.mark.parametrize("side", CACHE_SIDES)
def test_replay_counters_match_fresh_per_arch_process(side):
    """One grouped pass == each architecture's own replay, exactly."""
    if side == "dcache":
        stream = synthetic_data_trace(num_accesses=1024, seed=5)
    else:
        stream = synthetic_fetch_stream(num_blocks=96, seed=5)
    infos = list(architectures(side))
    grouped = replay_counters([info.build() for info in infos], stream)
    for info, counters in zip(infos, grouped):
        expected = info.build().process(stream)
        assert counters == expected, info.id


def test_stream_accesses_of_a_data_trace():
    """A data trace gives its 32-bit effective addresses, wrapping on
    negative displacements and past 2**32, with its store flags, and
    counts its accesses, loads and stores."""
    base = [0x40000, 0x10, 0xFFFFFFF0, 0, 0x80000000]
    disp = [-8, -0x20, 0x40, -4, 12]
    store = [False, True, True, False, True]
    trace = DataTrace.from_lists(base, disp, store)
    counters = AccessCounters()
    pairs = list(stream_accesses(trace, counters))
    assert pairs == [
        ((b + d) & 0xFFFFFFFF, s) for b, d, s in zip(base, disp, store)
    ]
    assert [addr for addr, _ in pairs] == [
        0x3FFF8, 0xFFFFFFF0, 0x30, 0xFFFFFFFC, 0x8000000C
    ]
    assert (counters.accesses, counters.loads, counters.stores) == (5, 2, 3)


def test_stream_accesses_of_a_fetch_stream_are_loads():
    """A fetch is a load: every flag is False and the load/store split
    stays zero, as the fetch columns' all-false store mask has it."""
    fetch = synthetic_fetch_stream(num_blocks=16, seed=3)
    counters = AccessCounters()
    pairs = list(stream_accesses(fetch, counters))
    assert [addr for addr, _ in pairs] == fetch.addr.tolist()
    assert not any(is_store for _, is_store in pairs)
    assert counters.accesses == len(fetch)
    assert counters.loads == counters.stores == 0
    cols = FetchColumns(fetch)
    assert cols.store_mask.shape == (len(fetch),)
    assert not cols.store_mask.any() and cols.num_stores == 0


def test_replay_counters_leave_input_controllers_untouched():
    """The engine evaluates shadows; callers' instances stay fresh."""
    from repro.baselines import FilterCache, OriginalCache
    from repro.core import (
        LineBufferWayMemoDCache,
        MABConfig,
        WayMemoDCache,
        WayMemoICache,
    )

    streams = {
        "dcache": synthetic_data_trace(num_accesses=256, seed=2),
        "icache": synthetic_fetch_stream(num_blocks=32, seed=2),
    }
    evict = MABConfig(2, 8, "evict_hook")
    groups = {
        "dcache": [OriginalCache(), WayMemoDCache(),
                   WayMemoDCache(mab_config=evict),
                   LineBufferWayMemoDCache(line_buffer_entries=2),
                   LineBufferWayMemoDCache(mab_config=evict),
                   FilterCache()],
        "icache": [WayMemoICache(), WayMemoICache(mab_config=evict),
                   FilterCache()],
    }
    for side, controllers in groups.items():
        replay_counters(controllers, streams[side])
        for controller in controllers:
            cache = controller.cache
            assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
            assert all(tag < 0 for row in cache._tags for tag in row)
            mab = getattr(controller, "mab", None)
            if mab is not None:
                assert (mab.lookups, mab.hits, mab.bypasses) == (0, 0, 0)
                assert mab.addresses_covered == 0
                assert mab.invalidations == 0
            buffer = getattr(controller, "write_buffer", None)
            if buffer is not None:
                assert buffer.inserts == 0
            lines = getattr(controller, "line_buffer", None)
            if lines is not None:
                assert lines.accesses == 0 and not lines._lines
            assert getattr(controller, "_l0", []) == []


@pytest.mark.parametrize("side", CACHE_SIDES)
def test_user_built_controllers_process_matches_reference(side):
    """``process`` on a controller built outside the registry derives
    from the instance's own design point: every registered design on
    a small FIFO cache, with its side structure one entry deeper than
    the default, matches its reference loop."""
    if side == "dcache":
        stream = synthetic_data_trace(
            num_accesses=2048, seed=7, large_disp_fraction=0.02
        )
    else:
        stream = synthetic_fetch_stream(num_blocks=128, seed=7)
    config = CacheConfig(2048, 2, 32)
    for info in architectures(side):
        point = replace(info.design_point(), cache=config, policy="fifo")
        if point.entries:
            point = replace(point, entries=point.entries + 1)
        cls = info.controller_class()
        controller = cls.from_point(point)
        assert controller.design_point() == point, info.id
        expected = cls.from_point(point).process_reference(stream)
        assert controller.process(stream) == expected, info.id


# ----------------------------------------------------------------------
# instance-free derivation
# ----------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """The ids of the registry entries built while the test runs."""
    from repro.api.registry import ArchitectureInfo

    built = []
    build = ArchitectureInfo.build

    def counting(self, params=None):
        built.append(self.id)
        return build(self, params)

    monkeypatch.setattr(ArchitectureInfo, "build", counting)
    return built


def _group_specs(side):
    """Every registered design of one side, plus parametrized points."""
    specs = [_spec(info.id, side=side) for info in architectures(side)]
    specs += [
        _spec("way-memo", side=side,
              params={"tag_entries": 4, "index_entries": 4,
                      "policy": "fifo"}),
        _spec("original", side=side, params={"policy": "random"}),
        _spec("filter-cache", side=side,
              params={"l0_lines": 3, "policy": "fifo"}),
    ]
    if side == "dcache":
        specs += [
            _spec("set-buffer", params={"entries": 3}),
            _spec("way-memo+line-buffer",
                  params={"line_buffer_entries": 2}),
            _spec("way-memo", params={"ways": 4, "size_bytes": 8192}),
        ]
    return specs


@pytest.mark.parametrize("side", CACHE_SIDES)
def test_batchable_group_builds_no_controller(side, builds):
    """A replay group of every registered design, the filter cache
    included, derives every member from its resolved design point: no
    ``ArchitectureInfo.build`` runs, and each result equals the spec's
    reference-engine evaluation."""
    specs = _group_specs(side)
    results = replay_specs(specs)
    assert builds == []
    for spec, result in zip(specs, results):
        reference = evaluate(
            replace(spec, engine="reference"), use_cache=False
        )
        assert result.counters == reference.counters, (
            spec.key()
        )


@pytest.mark.parametrize("side", CACHE_SIDES)
def test_filter_cache_alone_runs_no_shared_sweep(side):
    """The filter cache walks its own L1 stream, so a lone filter-cache
    member runs no shared sweep, and grouped with designs that read
    the sweep it leaves the group at exactly one."""
    from repro.api.registry import get_architecture
    from repro.replay.columns import columns_for_stream
    from repro.replay.engine import derive_counters
    from repro.telemetry import metrics as telemetry

    if side == "dcache":
        stream = synthetic_data_trace(num_accesses=1024, seed=13)
    else:
        stream = synthetic_fetch_stream(num_blocks=96, seed=13)
    cols = columns_for_stream(stream)
    sweeps = telemetry.counter("repro_replay_shared_sweeps_total")

    def members(*archs):
        return [
            (info.controller_class().derive, info.design_point())
            for info in (get_architecture(side, arch) for arch in archs)
        ]

    before = sweeps.value
    (alone,) = derive_counters(members("filter-cache"), cols)
    assert sweeps.value == before
    mixed = derive_counters(
        members("original", "filter-cache", "way-memo-2x8"), cols
    )
    assert sweeps.value == before + 1
    assert mixed[1] == alone


@pytest.mark.parametrize("arch,key", [
    ("set-buffer", "entries"),
    ("way-memo+line-buffer", "line_buffer_entries"),
    ("filter-cache", "l0_lines"),
])
def test_empty_side_structure_is_rejected(arch, key):
    with pytest.raises(ValueError, match=f"{key} must be at least 1"):
        replay_specs([_spec(arch, params={key: 0})])


# ----------------------------------------------------------------------
# group planning
# ----------------------------------------------------------------------

def test_plan_groups_shares_workloads_in_first_appearance_order():
    d1 = _spec("original")
    d2 = _spec("two-phase")
    i1 = _spec("original", side="icache")
    ref = _spec("original", engine="reference")
    groups = plan_groups([d1, i1, ref, d2])
    assert groups == [[d1, d2], [i1], [ref]]


def test_replay_specs_rejects_mixed_workloads():
    with pytest.raises(ValueError, match="mixes workloads"):
        replay_specs([_spec("original"), _spec("original", side="icache")])


# ----------------------------------------------------------------------
# spec-level byte-identity
# ----------------------------------------------------------------------

def test_grouped_evaluate_many_is_byte_identical_to_per_spec():
    """Every registered architecture, both sides, one shared workload
    per side, plus a reference-engine singleton riding along — grouped
    (serial and pooled) must match evaluating each spec alone."""
    specs = [
        _spec(info.id, side=side)
        for side in CACHE_SIDES
        for info in architectures(side)
    ]
    specs.append(_spec("original", engine="reference"))
    grouped_serial = evaluate_many(specs, workers=1, use_cache=False)
    grouped_pooled = evaluate_many(specs, workers=2, use_cache=False)
    expected = [evaluate(spec, use_cache=False).to_json() for spec in specs]
    assert [r.to_json() for r in grouped_serial] == expected
    assert [r.to_json() for r in grouped_pooled] == expected


def test_grouped_path_counts_and_persists_per_spec(fresh_store):
    """Grouping changes the schedule, not the accounting: one counted
    simulation and one store write-back per spec, and a warm store
    serves the whole group with zero new simulations."""
    specs = [
        _spec(arch)
        for arch in ("original", "two-phase", "way-prediction",
                     "way-memo-2x8")
    ]
    before = simulation_count()
    results = evaluate_many(specs, workers=1)
    assert simulation_count() - before == len(specs)
    assert fresh_store.puts == len(specs)
    clear_result_cache()
    warm = evaluate_many(specs, workers=1)
    assert simulation_count() - before == len(specs)
    assert fresh_store.hits == len(specs)
    assert [r.to_json() for r in warm] == [r.to_json() for r in results]


# ----------------------------------------------------------------------
# cross-geometry column sharing
# ----------------------------------------------------------------------

def test_columns_memoize_by_dependency_not_geometry():
    """Tags/keys are keyed by the tag boundary: two geometries with the
    same boundary share the same objects."""
    trace = synthetic_data_trace(num_accesses=128, seed=9)
    cols = DataColumns(trace)
    tags57 = cols.tags_array(5, 7)
    tags48 = cols.tags_array(4, 8)
    assert tags48 is tags57
    assert cols.keys_array(4, 8) is cols.keys_array(5, 7)


@st.composite
def _sortable(draw):
    """int64 arrays, negative values included, whose span (max - min)
    sits just under, at or just over 2**16, or far from it."""
    low = draw(st.integers(-(1 << 62), 1 << 62))
    span = draw(st.sampled_from(
        [0, 1, 3, (1 << 16) - 2, (1 << 16) - 1, 1 << 16, 1 << 40]
    ))
    offsets = draw(st.lists(st.integers(0, span), max_size=300))
    if offsets and draw(st.booleans()):
        # Pin the span: both ends present, somewhere in the array.
        offsets[draw(st.integers(0, len(offsets) - 1))] = 0
        offsets.append(span)
        offsets = draw(st.permutations(offsets))
    return np.array(offsets, dtype=np.int64) + low


@given(_sortable())
@example(np.array([], dtype=np.int64))
@example(np.array([-3], dtype=np.int64))
@example(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0]))
@settings(max_examples=200, deadline=None)
def test_stable_argsort_equals_numpy_stable_argsort(values):
    """The radix-sorting helper is ``np.argsort(kind="stable")``: the
    same permutation, ties in stream order, at every span, on empty and
    one-element arrays, and on a span past int64's range."""
    expected = np.argsort(values, kind="stable")
    assert stable_argsort(values).tolist() == expected.tolist()


@st.composite
def _key_columns(draw):
    """One or two equal-length int64 key columns, each drawn from a few
    values, negative ones included, whose span sits just under, at or
    just over 2**16, or far from it, so that keys repeat at every span."""
    size = draw(st.integers(0, 200))
    columns = []
    for _ in range(draw(st.integers(1, 2))):
        low = draw(st.integers(-(1 << 62), 1 << 62))
        span = draw(st.sampled_from(
            [0, 1, 3, (1 << 16) - 2, (1 << 16) - 1, 1 << 16, 1 << 40]
        ))
        pool = [0, span] + draw(st.lists(st.integers(0, span), max_size=6))
        picks = draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=size, max_size=size
        ))
        if size > 1 and draw(st.booleans()):
            # Pin the span: both ends present.
            picks[0], picks[-1] = 0, 1
        columns.append(np.array(pool, dtype=np.int64)[picks] + low)
    return columns


@given(_key_columns())
@example([np.array([], dtype=np.int64)])
@example([np.array([-3], dtype=np.int64), np.array([5], dtype=np.int64)])
@settings(max_examples=200, deadline=None)
def test_repeat_pairs_pairs_each_key_with_its_previous_occurrence(columns):
    """``repeat_pairs`` pairs every element with the latest earlier one
    of the same key tuple, as a walk that remembers each key's last
    position does, on empty and one-element columns too."""
    last, expected = {}, []
    for i, key in enumerate(zip(*(column.tolist() for column in columns))):
        if key in last:
            expected.append((last[key], i))
        last[key] = i
    earlier, later = repeat_pairs(*columns)
    assert sorted(zip(earlier.tolist(), later.tolist())) == sorted(expected)


def test_icache_way_memo_computes_keys_at_its_lookups_only():
    """An I-side MAB skips intra-line fetches, so its group computes
    the narrow-adder keys at its lookups alone and keeps no
    full-length key column; the D side, where every access looks up,
    keeps one."""
    from repro.api.registry import get_architecture
    from repro.replay.columns import column_stats, reset_column_stats

    streams = {
        "dcache": synthetic_data_trace(num_accesses=512, seed=21),
        "icache": synthetic_fetch_stream(num_blocks=64, seed=21),
    }
    for side, keys in (("dcache", 1), ("icache", 0)):
        info = get_architecture(side, "way-memo")
        built = [
            info.build({"tag_entries": 2, "index_entries": ns})
            for ns in (8, 16, 32)
        ]
        reset_column_stats()
        grouped = replay_counters(built, streams[side])
        assert column_stats()["keys_computes"] == keys, side
        for controller, counters in zip(built, grouped):
            expected = controller.process_reference(streams[side])
            assert counters == expected, side


def test_way_memo_sweep_group_splits_columns_once():
    """A multi-geometry way-memo sweep group computes its columnar
    pre-split once per workload, not once per MAB geometry."""
    from repro.replay.columns import column_stats, reset_column_stats

    stream = synthetic_data_trace(num_accesses=512, seed=21)
    from repro.api.registry import get_architecture

    geometries = [(2, 8), (4, 8), (2, 16), (4, 16), (8, 32)]
    built = [
        get_architecture("dcache", "way-memo").build(
            {"tag_entries": nt, "index_entries": ns}
        )
        for nt, ns in geometries
    ]
    reset_column_stats()
    grouped = replay_counters(built, stream)
    stats = column_stats()
    assert stats["tags_computes"] == 1
    assert stats["sets_computes"] == 1
    assert stats["keys_computes"] == 1

    for (nt, ns), counters in zip(geometries, grouped):
        expected = get_architecture("dcache", "way-memo").build(
            {"tag_entries": nt, "index_entries": ns}
        ).process(stream)
        assert counters == expected, (nt, ns)


@pytest.mark.parametrize("side", CACHE_SIDES)
def test_lone_way_prediction_replay_computes_tags_and_sets_only(side):
    """Way prediction reads the set column the shared sweep already
    computed, so a lone replay computes exactly the sweep's two
    arrays: no narrow-adder keys and, on the I side, no lines."""
    from repro.api.registry import get_architecture
    from repro.replay.columns import column_stats, reset_column_stats

    if side == "dcache":
        stream = synthetic_data_trace(num_accesses=512, seed=21)
    else:
        stream = synthetic_fetch_stream(num_blocks=64, seed=21)
    reset_column_stats()
    get_architecture(side, "way-prediction").build().process(stream)
    assert column_stats()["array_computes"] == 2


def test_way_memo_grid_group_shares_one_sweep_and_one_distance_pass():
    """The paper's 12 (Nt, Ns) way-memo geometries plus the baselines
    of one side that derive from the shared sweep run as one sweep,
    and walk each LRU value stream (the MAB's key and set streams, the
    set buffer's set stream) once for every geometry."""
    from repro.api.registry import get_architecture
    from repro.experiments.ablation_mab_size import (
        INDEX_ENTRIES,
        TAG_ENTRIES,
    )
    from repro.replay.columns import column_stats, reset_column_stats
    from repro.telemetry import metrics as telemetry

    streams = {
        "dcache": synthetic_data_trace(
            num_accesses=2048, seed=31, large_disp_fraction=0.02
        ),
        "icache": synthetic_fetch_stream(num_blocks=256, seed=31),
    }
    baselines = {
        "dcache": ("original", "two-phase", "way-prediction",
                   "set-buffer"),
        "icache": ("original", "panwar", "ma-links", "way-prediction",
                   "two-phase"),
    }
    value_streams = {"dcache": 3, "icache": 2}
    sweeps = telemetry.counter("repro_replay_shared_sweeps_total")
    for side, stream in streams.items():
        grid = [
            {"tag_entries": nt, "index_entries": ns}
            for nt in TAG_ENTRIES
            for ns in INDEX_ENTRIES
        ]
        way_memo = get_architecture(side, "way-memo")
        controllers = [way_memo.build(params) for params in grid] + [
            get_architecture(side, arch).build() for arch in baselines[side]
        ]
        reset_column_stats()
        sweeps_before = sweeps.value
        grouped = replay_counters(controllers, stream)
        assert sweeps.value - sweeps_before == 1, side
        assert column_stats()["distance_passes"] == value_streams[side]
        for params, counters in zip(grid, grouped):
            expected = way_memo.build(params).process_reference(stream)
            assert counters == expected, (side, params)


def test_line_buffer_joins_the_shared_sweep():
    """The way-memo + line-buffer design derives from the shared sweep:
    grouped with plain way memo, at one- and two-line buffer depths and
    in both consistency modes, it runs one sweep and matches each
    design's reference loop."""
    from repro.api.registry import get_architecture
    from repro.telemetry import metrics as telemetry

    stream = synthetic_data_trace(
        num_accesses=4096, seed=41, large_disp_fraction=0.02
    )
    params = [
        ("way-memo+line-buffer", {}),
        ("way-memo+line-buffer", {"line_buffer_entries": 2}),
        ("way-memo+line-buffer", {"line_buffer_entries": 2,
                                  "consistency": "evict_hook"}),
        ("way-memo-2x8", {}),
    ]
    infos = [(get_architecture("dcache", arch), p) for arch, p in params]
    sweeps = telemetry.counter("repro_replay_shared_sweeps_total")
    sweeps_before = sweeps.value
    grouped = replay_counters(
        [info.build(p) for info, p in infos], stream
    )
    assert sweeps.value - sweeps_before == 1
    for (info, p), counters in zip(infos, grouped):
        expected = info.build(p).process_reference(stream)
        assert counters == expected, (info.id, p)


@pytest.mark.parametrize("side", CACHE_SIDES)
def test_synthetic_replay_group_generates_its_stream_once(
    side, monkeypatch
):
    """A replay group resolves its stream once: the columns and the
    cycle base come from one generated synthetic stream."""
    import importlib

    from repro.replay.engine import clear_columns_cache

    evaluate_module = importlib.import_module("repro.api.evaluate")
    generate = evaluate_module.generate_synthetic
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    specs = [_spec("original", side=side), _spec("two-phase", side=side)]
    expected = [evaluate(spec, use_cache=False).to_json() for spec in specs]
    monkeypatch.setattr(evaluate_module, "generate_synthetic", counting)
    monkeypatch.setattr("repro.workloads.generate_synthetic", counting)
    clear_columns_cache()
    try:
        results = replay_specs(specs)
    finally:
        clear_columns_cache()
    assert len(calls) == 1
    assert [result.to_json() for result in results] == expected

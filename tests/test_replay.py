"""Tests for the single-pass multi-architecture replay engine.

Locks down the tentpole contracts: a grouped ``replay_counters`` pass
reproduces each architecture's own singleton ``process`` exactly (the
batchable designs share literally one batch sweep per geometry and
policy); ``plan_groups`` partitions batches deterministically;
``evaluate_many`` routes shared-workload groups through the engine
byte-identically to evaluating each spec alone, with unchanged
per-spec simulation accounting and store write-back; and the columnar
pre-split is memoized per dependency, not per geometry.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CACHE_SIDES,
    RunSpec,
    architectures,
    clear_result_cache,
    evaluate,
    evaluate_many,
)
from repro.api.evaluate import simulation_count
from repro.replay.columns import DataColumns
from repro.replay.engine import plan_groups, replay_counters, replay_specs
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
        assert counters.as_dict() == expected.as_dict(), info.id


def test_replay_counters_leave_input_controllers_untouched():
    """The engine evaluates shadows; callers' instances stay fresh."""
    from repro.baselines import OriginalDCache
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
        "dcache": [OriginalDCache(), WayMemoDCache(),
                   WayMemoDCache(mab_config=evict),
                   LineBufferWayMemoDCache(line_buffer_entries=2),
                   LineBufferWayMemoDCache(mab_config=evict)],
        "icache": [WayMemoICache(), WayMemoICache(mab_config=evict)],
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
        assert counters.as_dict() == expected.as_dict(), (nt, ns)


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
    """The paper's 12 (Nt, Ns) way-memo geometries plus the batchable
    baselines of one side run as one shared sweep with no stateful
    member, and walk each LRU value stream (the MAB's key and set
    streams, the set buffer's set stream) once for every geometry."""
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
    stateful = telemetry.counter("repro_replay_stateful_members_total")
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
        sweeps_before, stateful_before = sweeps.value, stateful.value
        grouped = replay_counters(controllers, stream)
        assert sweeps.value - sweeps_before == 1, side
        assert stateful.value == stateful_before, side
        assert column_stats()["distance_passes"] == value_streams[side]
        for params, counters in zip(grid, grouped):
            expected = way_memo.build(params).process_reference(stream)
            assert counters.as_dict() == expected.as_dict(), (side, params)


def test_line_buffer_joins_the_shared_sweep():
    """The way-memo + line-buffer design derives from the shared sweep:
    grouped with plain way memo, at one- and two-line buffer depths and
    in both consistency modes, it runs one sweep with no stateful
    member and matches each design's reference loop."""
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
    stateful = telemetry.counter("repro_replay_stateful_members_total")
    sweeps_before, stateful_before = sweeps.value, stateful.value
    grouped = replay_counters(
        [info.build(p) for info, p in infos], stream
    )
    assert sweeps.value - sweeps_before == 1
    assert stateful.value == stateful_before
    for (info, p), counters in zip(infos, grouped):
        expected = info.build(p).process_reference(stream)
        assert counters.as_dict() == expected.as_dict(), (info.id, p)


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

"""Tests for the declarative ``repro.api`` evaluation layer.

Locks down the tentpole contracts: the central registry is complete
and constructs every architecture; specs round-trip losslessly through
JSON and evaluate to identical counters afterwards; results are
schema-versioned and byte-stable; ``evaluate_many`` is deterministic
for any worker count; and the registry carries the power-model
metadata of every design.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    CACHE_SIDES,
    RESULT_SCHEMA_VERSION,
    RunResult,
    RunSpec,
    architecture_ids,
    architectures,
    comparison_archs,
    evaluate,
    evaluate_many,
    get_architecture,
)
from repro.api.determinism_check import main as determinism_main

#: A tiny synthetic workload per side: fast enough to drive every
#: registered architecture through a real evaluation in unit tests.
TINY = {
    "dcache": "synthetic:num_accesses=512,seed=11",
    "icache": "synthetic:num_blocks=64,block_packets=4,seed=11",
}


def _tiny_spec(side, info, **params):
    return RunSpec(
        cache=side, arch=info.id, workload=TINY[side], params=params
    )


# ----------------------------------------------------------------------
# registry completeness
# ----------------------------------------------------------------------

def test_registry_covers_both_sides():
    for side in CACHE_SIDES:
        assert architecture_ids(side)
    assert "way-memo-2x8" in architecture_ids("dcache")
    assert "way-memo-2x16" in architecture_ids("icache")
    assert "way-memo" in architecture_ids("dcache")


def test_every_registered_architecture_constructs_and_evaluates():
    for side in CACHE_SIDES:
        for info in architectures(side):
            controller = info.build()
            assert hasattr(controller, "process"), info.id
            result = evaluate(_tiny_spec(side, info))
            assert result.counters.accesses > 0, (side, info.id)
            assert result.power.total_mw > 0, (side, info.id)


def test_mab_archs_have_geometry_others_have_none():
    for side in CACHE_SIDES:
        for info in architectures(side):
            assert (info.design_point().mab is not None) == info.uses_mab


@pytest.mark.parametrize(
    "arch", ["original", "two-phase", "way-prediction", "filter-cache"]
)
def test_both_caches_of_a_design_name_one_controller_class(arch):
    """A fetch is a load, so these designs serve both caches with one
    controller class."""
    assert (
        get_architecture("dcache", arch).controller_class()
        is get_architecture("icache", arch).controller_class()
    )


def test_comparison_archs_match_paper_order():
    assert comparison_archs("dcache") == (
        "original", "filter-cache", "way-prediction", "two-phase",
        "way-memo-2x8",
    )
    assert comparison_archs("icache") == (
        "original", "ma-links", "filter-cache", "way-prediction",
        "two-phase", "way-memo-2x16",
    )


def test_registry_prices_aux_bits_and_mab_geometry():
    def aux_bits(side, arch):
        info = get_architecture(side, arch)
        if info.aux_bits is None:
            return None
        return info.aux_bits(info.design_point())

    def geometry(side, arch):
        mab = get_architecture(side, arch).design_point().mab
        return (mab.tag_entries, mab.index_entries)

    # The historical per-architecture values, at default parameters.
    assert aux_bits("dcache", "set-buffer") == 2 * (2 * 18 + 9)
    for side in CACHE_SIDES:
        assert aux_bits(side, "filter-cache") == 8 * (32 * 8 + 27)
        assert aux_bits(side, "way-prediction") == 512
        assert aux_bits(side, "original") is None
    assert aux_bits("icache", "ma-links") == 4096
    assert geometry("dcache", "way-memo-2x8") == (2, 8)
    assert geometry("icache", "way-memo-2x16") == (2, 16)
    assert geometry("dcache", "way-memo+line-buffer") == (2, 8)


def test_unknown_ids_raise_with_available_listing():
    with pytest.raises(KeyError, match="available"):
        get_architecture("dcache", "nonexistent")
    with pytest.raises(ValueError, match="cache must be"):
        RunSpec(cache="l3", arch="original", workload="dct")
    with pytest.raises(KeyError, match="no parameter"):
        RunSpec(cache="dcache", arch="way-memo", workload="dct",
                params={"bogus": 1})
    with pytest.raises(KeyError, match="unknown workload"):
        RunSpec(cache="dcache", arch="original", workload="linpack")
    with pytest.raises(ValueError, match="engine"):
        RunSpec(cache="dcache", arch="original", workload="dct",
                engine="simd")
    with pytest.raises(KeyError, match="synthetic parameter"):
        RunSpec(cache="dcache", arch="original",
                workload="synthetic:bogus=1")
    with pytest.raises(ValueError, match="num_accesses"):
        RunSpec(cache="dcache", arch="original",
                workload="synthetic:num_accesses=0")


# ----------------------------------------------------------------------
# spec round-tripping
# ----------------------------------------------------------------------

def test_spec_json_roundtrip_is_lossless():
    for side in CACHE_SIDES:
        for info in architectures(side):
            spec = _tiny_spec(side, info)
            clone = RunSpec.from_json(spec.to_json())
            assert clone == spec
            assert clone.key() == spec.key()


def test_spec_params_are_canonicalised():
    a = RunSpec(cache="dcache", arch="way-memo", workload="dct",
                params={"index_entries": 4, "tag_entries": 1})
    b = RunSpec(cache="dcache", arch="way-memo", workload="dct",
                params={"tag_entries": 1, "index_entries": 4})
    assert a == b
    assert a.to_json() == b.to_json()
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cache, workload, canonical", [
    ("dcache", "dct:stack=0", "dct"),
    ("dcache", "compress:stack=0.20,scale=2", "compress:scale=2,stack=0.2"),
    ("icache", "fft:packet=8", "fft"),
    ("icache", "fft:packet=016", "fft:packet=16"),
    ("icache", "mpeg2enc:scale=2,packet=4", "mpeg2enc:packet=4,scale=2"),
])
def test_spec_workload_modifiers_are_canonicalised(cache, workload,
                                                   canonical):
    """Two spellings of one design point share one key."""
    spec = RunSpec(cache=cache, arch="original", workload=workload)
    assert spec.workload == canonical
    assert spec.key() == RunSpec(
        cache=cache, arch="original", workload=canonical
    ).key()


@pytest.mark.parametrize("cache, arch, workload, params, error, match", [
    ("dcache", "original", "dct:packet=16", {}, ValueError, "packet="),
    ("icache", "original", "dct:stack=0.2", {}, ValueError, "stack="),
    ("dcache", "way-memo", "dct", {"ways": 3}, ValueError, "3-way"),
    ("dcache", "way-memo", "dct", {"size_bytes": 1000}, ValueError,
     "1000-byte"),
    ("dcache", "way-memo", "dct", {"size_bytes": 1 << 21}, ValueError,
     "capped"),
    ("dcache", "way-memo", "dct", {"ways": "4"}, ValueError, "integer"),
    ("icache", "way-memo", "dct", {"ways": 4}, KeyError,
     "no parameter 'ways'"),
    ("dcache", "way-memo-2x8", "dct", {"size_bytes": 8192}, KeyError,
     "no parameter 'size_bytes'"),
])
def test_spec_rejects_bad_modifiers_and_geometries(cache, arch, workload,
                                                   params, error, match):
    with pytest.raises(error, match=match):
        RunSpec(cache=cache, arch=arch, workload=workload, params=params)


def test_spec_geometry_reaches_controller_pricing_and_checks():
    """``ways`` / ``size_bytes`` resolve in one place, and the
    controller, Equation (1) pricing and the counter invariants all
    read it: an 8-way MAB miss compares 8 tags, which the FR-V
    2-way invariant would refuse."""
    from repro.cache.config import FRV_DCACHE
    from repro.energy import CachePowerModel, MABHardwareModel

    spec = _tiny_spec(
        "dcache", get_architecture("dcache", "way-memo"),
        ways=8, size_bytes=8192,
    )
    info = get_architecture("dcache", "way-memo")
    config = info.cache_config(spec.param_dict)
    assert (config.ways, config.size_bytes) == (8, 8192)
    assert info.build(spec.param_dict).cache.config == config
    result = evaluate(spec, use_cache=False)
    c = result.counters
    assert c.tag_accesses > 2 * c.accesses
    price = {"label": "way-memo", "mab_model": MABHardwareModel(2, 8)}
    assert result.power == CachePowerModel(config).power(
        c, result.cycles, **price
    )
    assert result.power != CachePowerModel(FRV_DCACHE).power(
        c, result.cycles, **price
    )


def test_spec_roundtrip_evaluates_to_identical_counters():
    """JSON-dump -> load -> evaluate must not change a single count."""
    for side in CACHE_SIDES:
        for info in architectures(side):
            spec = _tiny_spec(side, info)
            direct = evaluate(spec, use_cache=False)
            roundtripped = evaluate(
                RunSpec.from_json(spec.to_json()), use_cache=False
            )
            assert direct.to_json() == roundtripped.to_json(), (
                side, info.id
            )


def test_parametric_way_memo_matches_fixed_preset():
    """'way-memo' with explicit params is the 2x8 preset, point for point."""
    preset = evaluate(RunSpec(
        cache="dcache", arch="way-memo-2x8", workload=TINY["dcache"]
    ))
    parametric = evaluate(RunSpec(
        cache="dcache", arch="way-memo", workload=TINY["dcache"],
        params={"tag_entries": 2, "index_entries": 8},
    ))
    assert preset.counters.__dict__ == parametric.counters.__dict__
    assert preset.power.total_mw == parametric.power.total_mw


def test_reference_engine_evaluates_for_every_registered_architecture():
    """engine="reference" runs every design's ``process_reference``
    and prices it exactly like the fast engine's result."""
    for side in CACHE_SIDES:
        for info in architectures(side):
            fast = evaluate(_tiny_spec(side, info), use_cache=False)
            ref = evaluate(RunSpec(
                cache=side, arch=info.id, workload=TINY[side],
                engine="reference",
            ), use_cache=False)
            assert ref.counters == fast.counters, (
                side, info.id
            )
            assert ref.power == fast.power, (side, info.id)


def test_reference_engine_agrees_with_fast_engine():
    spec = RunSpec(cache="dcache", arch="original",
                   workload=TINY["dcache"])
    fast = evaluate(spec, use_cache=False)
    ref = evaluate(RunSpec(
        cache="dcache", arch="original", workload=TINY["dcache"],
        engine="reference",
    ), use_cache=False)
    for name in ("accesses", "tag_accesses", "way_accesses",
                 "cache_hits", "cache_misses"):
        assert getattr(fast.counters, name) == getattr(
            ref.counters, name
        ), name


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

def test_result_is_schema_versioned_and_roundtrips():
    spec = RunSpec(cache="icache", arch="panwar",
                   workload=TINY["icache"])
    result = evaluate(spec)
    payload = result.to_dict()
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION
    clone = RunResult.from_json(result.to_json())
    assert clone.to_json() == result.to_json()
    assert clone.counters.accesses == result.counters.accesses
    assert clone.power.total_mw == pytest.approx(result.power.total_mw)


def test_result_refuses_foreign_schema_version():
    spec = RunSpec(cache="dcache", arch="original",
                   workload=TINY["dcache"])
    payload = evaluate(spec).to_dict()
    payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        RunResult.from_dict(payload)


def test_evaluate_cache_returns_same_object():
    spec = RunSpec(cache="dcache", arch="original",
                   workload=TINY["dcache"])
    assert evaluate(spec) is evaluate(spec)


# ----------------------------------------------------------------------
# evaluate_many determinism
# ----------------------------------------------------------------------

def _batch():
    return [
        RunSpec(cache=side, arch=arch, workload=TINY[side])
        for side in CACHE_SIDES
        for arch in ("original", "way-memo-2x8")
    ] + [
        RunSpec(cache="dcache", arch="way-memo", workload=TINY["dcache"],
                params={"tag_entries": 1, "index_entries": 4}),
    ]


def test_evaluate_many_byte_identical_for_any_worker_count():
    serial = evaluate_many(_batch(), workers=1, use_cache=False)
    pooled = evaluate_many(_batch(), workers=3, use_cache=False)
    assert [r.to_json() for r in serial] == [r.to_json() for r in pooled]


def test_evaluate_many_preserves_order_and_dedups():
    spec = RunSpec(cache="dcache", arch="original",
                   workload=TINY["dcache"])
    other = RunSpec(cache="dcache", arch="two-phase",
                    workload=TINY["dcache"])
    results = evaluate_many([spec, other, spec], workers=2)
    assert results[0] is results[2]
    assert results[0].spec == spec
    assert results[1].spec == other


def test_determinism_check_module_passes(capsys):
    assert determinism_main(["--workers", "2"]) == 0
    assert "byte-identical" in capsys.readouterr().out


# ----------------------------------------------------------------------
# cache bypass, worker-count validation and store-warning rate limiting
# ----------------------------------------------------------------------

def test_use_cache_false_reads_neither_cache_nor_store(
    tmp_path, monkeypatch
):
    """``use_cache=False`` must recompute: zero reads from the
    per-process cache *and* zero reads from the persistent store, even
    when both are warm (the historical bug served warm batches from
    the store anyway)."""
    from repro.api import clear_result_cache
    from repro.api.evaluate import simulation_count
    from repro.store import (
        STORE_ENV,
        default_store,
        reset_default_stores,
    )

    monkeypatch.setenv(STORE_ENV, str(tmp_path / "results.sqlite"))
    reset_default_stores()
    clear_result_cache()
    try:
        specs = _batch()
        evaluate_many(specs, workers=1)       # warm both layers
        store = default_store()
        hits, misses, puts = store.hits, store.misses, store.puts
        before = simulation_count()
        results = evaluate_many(specs, workers=1, use_cache=False)
        assert len(results) == len(specs)
        unique = len({spec.key() for spec in specs})
        assert simulation_count() - before == unique
        assert (store.hits, store.misses, store.puts) == (
            hits, misses, puts
        )
    finally:
        clear_result_cache()
        reset_default_stores()


def test_negative_worker_counts_are_rejected():
    from repro.api.parallel import resolve_worker_count

    with pytest.raises(ValueError, match="workers"):
        resolve_worker_count(-1)
    with pytest.raises(ValueError, match="workers"):
        evaluate_many(_batch(), workers=-2, use_cache=False)
    # the documented sentinels still resolve
    assert resolve_worker_count(1) == 1
    assert resolve_worker_count(0) >= 1
    assert resolve_worker_count(None) >= 1


def test_cli_rejects_negative_workers(capsys):
    from repro.cli import main as cli_main

    spec = json.dumps({
        "cache": "dcache", "arch": "original",
        "workload": TINY["dcache"],
    })
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["eval", spec, "--workers", "-1"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_store_warnings_once_per_process_per_distinct_failure(
    tmp_path, monkeypatch, capsys
):
    """A broken store warns once per distinct failure message, not
    once per spec: a batch against an unopenable store emits exactly
    one line, and only a *different* failure warns again."""
    import sqlite3

    from repro.api import clear_result_cache
    from repro.store import (
        STORE_ENV,
        default_store,
        reset_default_stores,
    )

    monkeypatch.setenv(STORE_ENV, str(tmp_path / "results.sqlite"))
    reset_default_stores()
    clear_result_cache()
    try:
        store = default_store()

        def locked():
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(store, "_connect", locked)
        capsys.readouterr()
        specs = [
            RunSpec(cache="dcache", arch=arch, workload=TINY["dcache"])
            for arch in ("original", "two-phase", "way-prediction")
        ]
        results = evaluate_many(specs, workers=1)
        assert len(results) == 3
        err = capsys.readouterr().err
        assert err.count("result store unavailable") == 1

        def full():
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(store, "_connect", full)
        evaluate(RunSpec(cache="icache", arch="original",
                         workload=TINY["icache"]), use_cache=True)
        err = capsys.readouterr().err
        assert err.count("result store unavailable") == 1
        assert "disk is full" in err
    finally:
        clear_result_cache()
        reset_default_stores()


# ----------------------------------------------------------------------
# counter invariants before the store
# ----------------------------------------------------------------------

def _counters(**overrides):
    """D-side counters that satisfy every invariant, with overrides."""
    from repro.cache.stats import AccessCounters

    fields = dict(
        accesses=10, cache_hits=8, cache_misses=2, loads=6, stores=4,
        mab_lookups=9, mab_hits=5, stale_hits=0, mab_bypasses=1,
        tag_accesses=8, way_accesses=14,
    )
    fields.update(overrides)
    return AccessCounters(**fields)


def _finish(arch, counters):
    from repro.api.evaluate import _finish_result

    spec = RunSpec(cache="dcache", arch=arch, workload=TINY["dcache"])
    info = get_architecture("dcache", arch)
    point = info.design_point(spec.param_dict)
    return _finish_result(spec, info, point, counters, 100)


@pytest.mark.parametrize("arch, overrides, check", [
    ("way-memo-2x8", {"cache_misses": 3}, "hits + misses = accesses"),
    ("way-memo-2x8", {"loads": 7}, "loads + stores = accesses"),
    ("way-memo-2x8", {"mab_hits": 9}, "mab_lookups"),
    ("way-memo-2x8", {"mab_lookups": 11}, "<= accesses"),
    ("way-memo-2x8", {"tag_accesses": 21}, "tag_accesses <= ways"),
    ("way-memo-2x8", {"way_accesses": 31}, "way_accesses <= (ways + 1)"),
    ("way-memo-2x8-evict", {"mab_hits": 4, "stale_hits": 1},
     "zero stale hits in evict_hook mode"),
])
def test_finish_result_rejects_counters_breaking_an_invariant(
    arch, overrides, check
):
    from repro.api import CounterInvariantError

    assert _finish("way-memo-2x8", _counters()).counters.accesses == 10
    with pytest.raises(CounterInvariantError) as error:
        _finish(arch, _counters(**overrides))
    message = str(error.value)
    assert check in message
    assert arch in message  # the spec is named


def test_paper_mode_stale_hits_are_counted_not_rejected():
    result = _finish("way-memo-2x8", _counters(mab_hits=4, stale_hits=1))
    assert result.counters.stale_hits == 1


def test_counter_invariant_error_leaves_the_store_unwritten(
    tmp_path, monkeypatch
):
    """A fast-path result that breaks an invariant fails its evaluation
    before the write-back: the store holds nothing for it."""
    from repro.api import CounterInvariantError, clear_result_cache
    from repro.replay import engine
    from repro.store import STORE_ENV, default_store, reset_default_stores

    monkeypatch.setattr(
        engine, "derive_counters",
        lambda members, cols: [
            _counters(cache_misses=3) for _ in members
        ],
    )
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "results.sqlite"))
    reset_default_stores()
    clear_result_cache()
    try:
        spec = RunSpec(
            cache="dcache", arch="way-memo-2x8", workload=TINY["dcache"]
        )
        with pytest.raises(CounterInvariantError):
            evaluate(spec)
        with pytest.raises(CounterInvariantError):
            evaluate_many([spec], workers=1)
        store = default_store()
        assert store.puts == 0
        assert store.get(spec) is None
    finally:
        clear_result_cache()
        reset_default_stores()

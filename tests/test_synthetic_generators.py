"""The synthetic workload generator DSL: registry, determinism, specs.

Every registered generator kind must produce a well-formed stream,
deterministically per seed, and be addressable from a spec as
``synthetic:kind=<name>,k=v`` — with malformed spellings rejected at
spec construction, and evaluation byte-identical across worker counts
and whether a spec is evaluated alone or inside a replay group.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, comparison_archs, evaluate, evaluate_many
from repro.sim.fetch import FetchStream
from repro.sim.trace import DataTrace
from repro.workloads import (
    default_synthetic_kind,
    generate_synthetic,
    synthetic_generator,
    synthetic_kinds,
)

#: Small per-kind parameter sets (fast, but enough stream to matter).
SIZES = {"dcache": {"num_accesses": 768}}


def _params(cache: str, kind: str) -> dict:
    if cache == "dcache":
        return {"kind": kind, "num_accesses": 768, "seed": 11}
    if kind == "mab-thrash":
        return {"kind": kind, "num_fetches": 768, "seed": 11}
    return {"kind": kind, "num_blocks": 96, "seed": 11}


ALL_KINDS = [
    (cache, kind)
    for cache in ("dcache", "icache")
    for kind in synthetic_kinds(cache)
]


@pytest.mark.parametrize("cache,kind", ALL_KINDS)
def test_every_kind_generates_a_wellformed_stream(cache, kind):
    stream = generate_synthetic(cache, _params(cache, kind))
    if cache == "dcache":
        assert isinstance(stream, DataTrace)
        assert len(stream) == 768
        assert stream.base.dtype == np.uint32
        assert stream.disp.dtype == np.int32
        assert stream.store.dtype == np.bool_
    else:
        assert isinstance(stream, FetchStream)
        assert len(stream) > 0
        assert stream.addr.dtype == np.uint32


@pytest.mark.parametrize("cache,kind", ALL_KINDS)
def test_every_kind_is_seed_deterministic(cache, kind):
    a = generate_synthetic(cache, _params(cache, kind))
    b = generate_synthetic(cache, _params(cache, kind))
    if cache == "dcache":
        np.testing.assert_array_equal(a.base, b.base)
        np.testing.assert_array_equal(a.disp, b.disp)
        np.testing.assert_array_equal(a.store, b.store)
    else:
        np.testing.assert_array_equal(a.addr, b.addr)
        np.testing.assert_array_equal(a.kind, b.kind)


def test_default_kind_keeps_the_original_spelling():
    # 'synthetic:num_accesses=...' (no kind=) must keep selecting the
    # original generators, so pre-existing spec keys stay stable.
    assert default_synthetic_kind("dcache") == "pointers"
    assert default_synthetic_kind("icache") == "blocks"
    spec = RunSpec(
        cache="dcache", arch="original",
        workload="synthetic:num_accesses=256,seed=7",
    )
    assert "kind" not in spec.workload


def test_unknown_kind_is_rejected_listing_the_registry():
    with pytest.raises(KeyError, match="available.*mab-thrash"):
        synthetic_generator("dcache", "nope")
    with pytest.raises(KeyError, match="unknown synthetic kind"):
        RunSpec(
            cache="icache", arch="original",
            workload="synthetic:kind=nope,num_blocks=64",
        )


def test_unknown_parameter_is_rejected_at_spec_construction():
    with pytest.raises(KeyError, match="synthetic parameter"):
        RunSpec(
            cache="dcache", arch="original",
            workload="synthetic:kind=mab-thrash,bogus=3",
        )


def test_nonnumeric_parameter_value_is_rejected():
    with pytest.raises(ValueError, match="must be numeric"):
        RunSpec(
            cache="dcache", arch="original",
            workload="synthetic:num_accesses=abc",
        )


def test_numeric_kind_is_rejected():
    with pytest.raises(ValueError, match="must name a generator"):
        RunSpec(
            cache="dcache", arch="original",
            workload="synthetic:kind=5,num_accesses=64",
        )


def test_nonpositive_stream_size_is_rejected():
    with pytest.raises(ValueError, match="num_accesses > 0"):
        RunSpec(
            cache="dcache", arch="original",
            workload="synthetic:num_accesses=0",
        )


def _kind_specs():
    specs = []
    for cache, kind in ALL_KINDS:
        params = _params(cache, kind)
        body = ",".join(f"{k}={params[k]}" for k in sorted(params))
        arch = "way-memo-2x8" if cache == "dcache" else "way-memo-2x16"
        specs.append(RunSpec(
            cache=cache, arch=arch, workload=f"synthetic:{body}",
        ))
    return specs


def test_generator_specs_byte_identical_across_worker_counts():
    specs = _kind_specs()
    serial = [
        r.to_json()
        for r in evaluate_many(specs, workers=1, use_cache=False)
    ]
    pooled = [
        r.to_json()
        for r in evaluate_many(specs, workers=3, use_cache=False)
    ]
    assert serial == pooled


def test_generator_specs_byte_identical_grouped_or_alone():
    """Every kind's stream replayed for the whole comparison set in one
    group equals evaluating each design point on its own."""
    specs = [
        RunSpec(cache=spec.cache, arch=arch, workload=spec.workload)
        for spec in _kind_specs()
        for arch in comparison_archs(spec.cache)
    ]
    grouped = [
        r.to_json()
        for r in evaluate_many(specs, workers=1, use_cache=False)
    ]
    alone = [evaluate(spec, use_cache=False).to_json() for spec in specs]
    assert grouped == alone

"""Tests for the workload ``scale`` parameter.

The contract: scale=1 is bit-for-bit the paper-sized benchmark (same
program digest, same golden outputs — the existing golden-math tests
keep passing untouched), larger scales grow the input linearly, every
scaled variant still passes its own golden-model check, and scaled
names are first-class workload strings for ``load_workload`` and
``RunSpec``.
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec, evaluate
from repro.workloads import (
    SCALABLE_BENCHMARKS,
    WorkloadName,
    get_benchmark,
    load_workload,
    parse_workload,
)
from repro.workloads import compress, jpeg_enc, mpeg2enc

_MODULES = {
    "compress": compress, "jpeg_enc": jpeg_enc, "mpeg2enc": mpeg2enc,
}


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_parse_plain_and_scaled_names():
    assert parse_workload("dct") == WorkloadName("dct")
    assert parse_workload("compress:scale=4") == WorkloadName(
        "compress", scale=4
    )
    assert parse_workload("mpeg2enc:scale=1") == WorkloadName("mpeg2enc")
    assert parse_workload("compress:stack=0.2,scale=2,packet=16") == (
        WorkloadName("compress", scale=2, packet=16, stack=0.2)
    )


@pytest.mark.parametrize("name, canonical, program", [
    ("dct", "dct", "dct"),
    ("dct:stack=0", "dct", "dct"),
    ("dct:stack=0.0", "dct", "dct"),
    ("fft:packet=8", "fft", "fft"),
    ("compress:scale=1", "compress", "compress"),
    ("dct:stack=0.20", "dct:stack=0.2", "dct"),
    ("fft:packet=016", "fft:packet=16", "fft"),
    ("compress:stack=0.4,scale=2", "compress:scale=2,stack=0.4",
     "compress:scale=2"),
    ("jpeg_enc:scale=3,packet=4", "jpeg_enc:packet=4,scale=3",
     "jpeg_enc:scale=3"),
])
def test_canonical_spellings(name, canonical, program):
    """Keys sorted, defaults dropped; the program keeps only scale."""
    assert str(parse_workload(name)) == canonical
    assert str(parse_workload(canonical)) == canonical
    assert parse_workload(name).program == program


def test_parse_rejects_bad_names():
    with pytest.raises(KeyError, match="unknown benchmark"):
        parse_workload("linpack")
    with pytest.raises(ValueError, match="no scale parameter"):
        parse_workload("dct:scale=2")
    with pytest.raises(ValueError, match=">= 1"):
        parse_workload("compress:scale=0")
    with pytest.raises(ValueError, match="integer"):
        parse_workload("compress:scale=big")
    with pytest.raises(ValueError, match="scale=N"):
        parse_workload("compress:bogus=2")
    with pytest.raises(ValueError, match="power of two"):
        parse_workload("fft:packet=12")
    with pytest.raises(ValueError, match="power of two"):
        parse_workload("fft:packet=64")
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        parse_workload("dct:stack=1")
    with pytest.raises(ValueError, match="fraction"):
        parse_workload("dct:stack=lots")
    with pytest.raises(ValueError, match="repeats"):
        parse_workload("dct:stack=0.1,stack=0.2")


# ----------------------------------------------------------------------
# scale=1 is the paper benchmark, bit for bit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", SCALABLE_BENCHMARKS)
def test_scale_one_program_is_byte_identical(name):
    module = _MODULES[name]
    assert module.build().digest() == module.build(scale=1).digest()
    assert module.golden_output() == module.golden_output(scale=1)


def test_scale_one_workload_string_shares_the_cache_entry():
    assert load_workload("compress:scale=1") is load_workload("compress")


def test_scaled_inputs_extend_the_scale_one_stream():
    base = compress.input_text()
    assert compress.input_text(scale=2)[: len(base)] == base
    blocks = jpeg_enc.input_blocks()
    assert jpeg_enc.input_blocks(scale=2)[: len(blocks)] == blocks


def test_mpeg2_origins_scale_and_stay_in_frame():
    assert mpeg2enc.mb_origins() == list(mpeg2enc.MB_ORIGINS)
    origins = mpeg2enc.mb_origins(scale=3)
    assert len(origins) == 3 * len(mpeg2enc.MB_ORIGINS)
    assert origins[: len(mpeg2enc.MB_ORIGINS)] == list(
        mpeg2enc.MB_ORIGINS
    )
    lo = mpeg2enc.SEARCH
    hi = mpeg2enc.FRAME_DIM - mpeg2enc.MB_SIZE - mpeg2enc.SEARCH
    for my, mx in origins:
        assert lo <= my <= hi and lo <= mx <= hi


# ----------------------------------------------------------------------
# scaled execution
# ----------------------------------------------------------------------

def test_scaled_compress_passes_its_golden_check():
    from repro.sim import run_program

    bench = get_benchmark("compress:scale=2")
    result = run_program(bench.build())
    bench.check(result)                     # golden model at scale=2


def test_scaled_workload_grows_the_trace():
    base = load_workload("compress")
    scaled = load_workload("compress:scale=2")
    assert len(scaled.trace.data) > len(base.trace.data)
    assert scaled.cycles > base.cycles


def test_scaled_workloads_are_valid_run_specs():
    spec = RunSpec(
        cache="dcache", arch="way-memo-2x8",
        workload="compress:scale=2",
    )
    clone = RunSpec.from_json(spec.to_json())
    assert clone == spec
    result = evaluate(spec)
    base = evaluate(RunSpec(
        cache="dcache", arch="way-memo-2x8", workload="compress",
    ))
    assert result.counters.accesses > base.counters.accesses


def test_scale_one_spec_canonicalises_to_the_base_name():
    """':scale=1' spellings must share one spec key (store address)."""
    plain = RunSpec(cache="dcache", arch="original", workload="dct")
    spelled = RunSpec(cache="dcache", arch="original",
                      workload="dct:scale=1")
    assert spelled.workload == "dct"
    assert spelled == plain
    assert spelled.key() == plain.key()
    scaled = RunSpec(cache="dcache", arch="original",
                     workload="compress:scale=2")
    assert scaled.workload == "compress:scale=2"   # real scales survive


def test_run_spec_rejects_bad_scales():
    with pytest.raises(ValueError, match="no scale parameter"):
        RunSpec(cache="dcache", arch="original", workload="dct:scale=2")
    with pytest.raises(ValueError, match=">= 1"):
        RunSpec(cache="dcache", arch="original",
                workload="compress:scale=0")
    with pytest.raises(KeyError, match="unknown workload"):
        RunSpec(cache="dcache", arch="original", workload="linpack")

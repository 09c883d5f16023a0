"""The paper's seven benchmark programs, rebuilt for FRL-32.

Section 4 evaluates DCT, FFT, whetstone, dhrystone, compress, a JPEG
encoder and an MPEG-2 encoder.  Each module here generates the
corresponding kernel as FRL-32 assembly (with deterministic embedded
input data), plus a bit-exact Python *golden model* used by the tests
to verify the simulated architectural state — so the traces fed to the
cache studies come from genuinely executing programs, not synthetic
approximations.

:mod:`repro.workloads.suite` is the registry used by experiments;
:mod:`repro.workloads.synthetic` provides parametric synthetic
workload generators, addressable from specs as
``synthetic:kind=<name>,k=v,...``.
"""

from repro.workloads.suite import (
    BENCHMARK_NAMES,
    SCALABLE_BENCHMARKS,
    Benchmark,
    WorkloadName,
    get_benchmark,
    load_workload,
    parse_workload,
    run_benchmark,
)
from repro.workloads.synthetic import (
    DATA_GENERATORS,
    FETCH_GENERATORS,
    KIND_PARAM,
    default_synthetic_kind,
    generate_synthetic,
    synthetic_data_trace,
    synthetic_fetch_stream,
    synthetic_generator,
    synthetic_kinds,
)

__all__ = [
    "BENCHMARK_NAMES",
    "DATA_GENERATORS",
    "FETCH_GENERATORS",
    "KIND_PARAM",
    "SCALABLE_BENCHMARKS",
    "Benchmark",
    "WorkloadName",
    "default_synthetic_kind",
    "generate_synthetic",
    "get_benchmark",
    "load_workload",
    "parse_workload",
    "run_benchmark",
    "synthetic_data_trace",
    "synthetic_fetch_stream",
    "synthetic_generator",
    "synthetic_kinds",
]

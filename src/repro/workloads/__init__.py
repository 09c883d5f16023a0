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

from repro import _lazy_exports

#: Each public name and the module that defines it, imported on first
#: access: naming a benchmark loads neither the ISS nor the synthetic
#: generators and NumPy.
_EXPORTS = {
    "BENCHMARK_NAMES": "repro.workloads.suite",
    "KIND_PARAM": "repro.workloads.synthetic",
    "SCALABLE_BENCHMARKS": "repro.workloads.suite",
    "WorkloadName": "repro.workloads.suite",
    "default_synthetic_kind": "repro.workloads.synthetic",
    "generate_synthetic": "repro.workloads.synthetic",
    "get_benchmark": "repro.workloads.suite",
    "load_workload": "repro.workloads.suite",
    "parse_workload": "repro.workloads.suite",
    "run_benchmark": "repro.workloads.suite",
    "synthetic_data_trace": "repro.workloads.synthetic",
    "synthetic_fetch_stream": "repro.workloads.synthetic",
    "synthetic_generator": "repro.workloads.synthetic",
    "synthetic_kinds": "repro.workloads.synthetic",
}

__all__ = sorted(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)

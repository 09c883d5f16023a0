"""Way memoization for low-power caches — a full reproduction.

This package reproduces Ishihara & Fallah, *"A Way Memoization
Technique for Reducing Power Consumption of Caches in Application
Specific Integrated Processors"* (DATE 2005), including every
substrate the paper's evaluation depends on:

* :mod:`repro.isa` / :mod:`repro.sim` — the FRL-32 RISC ISA, a
  two-pass assembler and an instruction-set simulator producing
  address traces (the Softune-ISS substitute);
* :mod:`repro.cache` — set-associative cache substrate;
* :mod:`repro.core` — **the contribution**: the Memory Address Buffer
  and the way-memoizing I/D-cache controllers;
* :mod:`repro.baselines` — original cache, Panwar [4], set buffer
  [14], way prediction [9], filter cache [6], two-phase cache [8];
* :mod:`repro.energy` — CACTI-style SRAM energy, the calibrated MAB
  area/delay/power model (Tables 1-3) and Equation (1);
* :mod:`repro.workloads` — the seven benchmarks (DCT, FFT, dhrystone,
  whetstone, compress, jpeg_enc, mpeg2enc) rebuilt in FRL-32 assembly
  with bit-exact golden models;
* :mod:`repro.experiments` — one module per paper table/figure plus
  ablations; run them via ``python -m repro``.

Quickstart
----------
>>> from repro.workloads import load_workload
>>> from repro.core import WayMemoDCache
>>> workload = load_workload("dct")
>>> counters = WayMemoDCache().process(workload.trace.data)
>>> counters.tags_per_access < 1.0
True
"""

import importlib
from typing import Callable, Mapping

__version__ = "1.0.0"

# Nothing is re-exported: importing a subpackage (``repro.cli``, the
# service client) must not load the simulator and NumPy with it.
__all__ = ["__version__"]


def _lazy_exports(package: str, exports: Mapping[str, str]) -> Callable:
    """A PEP 562 module ``__getattr__`` for ``package``: each name in
    ``exports`` resolves, on every access, to the object the module
    it maps to defines, importing that module on first use."""

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module), name)

    return __getattr__

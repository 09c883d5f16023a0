"""Processor simulation substrate.

Replaces the paper's proprietary Softune instruction-set simulator: a
flat little-endian memory model (:mod:`repro.sim.memory`), an FRL-32
interpreter (:mod:`repro.sim.cpu`) and compact numpy-backed traces of
everything the cache architectures need to see
(:mod:`repro.sim.trace`, :mod:`repro.sim.fetch`):

* the **data access trace** keeps the *(base register value,
  displacement)* pair of every load/store — exactly the two inputs of
  the paper's D-cache MAB (Figure 1), plus the resolved address;
* the **flow trace** records straight-line runs and how each run was
  entered (taken branch, indirect/link jump), from which
  :func:`repro.sim.fetch.fetch_stream` derives the per-fetch-packet
  I-cache access stream with the MAB input mux of Figure 2.

Exports resolve on first access, so a process that only loads trace
archives (:mod:`repro.sim.traceio`) imports neither the interpreter
nor the ISA.
"""

from repro import _lazy_exports

#: Each public name and the module that defines it, imported on first
#: access.
_EXPORTS = {
    "CPU": "repro.sim.cpu",
    "CPUError": "repro.sim.cpu",
    "DataTrace": "repro.sim.trace",
    "ExecutionResult": "repro.sim.cpu",
    "ExecutionTrace": "repro.sim.trace",
    "FetchKind": "repro.sim.fetch",
    "FetchStream": "repro.sim.fetch",
    "FlowKind": "repro.sim.trace",
    "FlowTrace": "repro.sim.trace",
    "Memory": "repro.sim.memory",
    "MemoryError": "repro.sim.memory",
    "Profile": "repro.sim.profiler",
    "TraceFormatError": "repro.sim.traceio",
    "fetch_stream": "repro.sim.fetch",
    "load_traces": "repro.sim.traceio",
    "profile_trace": "repro.sim.profiler",
    "recommend_mab": "repro.sim.profiler",
    "run_program": "repro.sim.cpu",
    "save_traces": "repro.sim.traceio",
}

__all__ = sorted(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)

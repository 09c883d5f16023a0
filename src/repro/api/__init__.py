"""``repro.api`` — the declarative evaluation layer.

Every question this repository answers is an instance of "evaluate
cache architecture A on workload W and report counters + power".  This
package gives that question one typed, serializable shape:

>>> from repro.api import RunSpec, evaluate
>>> spec = RunSpec(cache="dcache", arch="way-memo-2x8", workload="dct")
>>> result = evaluate(spec)
>>> result.counters.tags_per_access, result.power.total_mw  # doctest: +SKIP

A :class:`RunSpec` round-trips losslessly through JSON
(``spec.to_json()`` / ``RunSpec.from_json``), so the same design point
runs from the library, from ``repro eval '<spec.json>'``, or inside a
sweep batch.  :func:`evaluate_many` fans batches over the shared
multiprocessing harness with byte-identical results for any worker
count.  The architecture registry (:mod:`repro.api.registry`) is the
single source of truth the experiments, the sweeps, ``repro list``
and the CLI all read.

CLI-vs-library mapping:

=============================================  =========================
CLI                                            library
=============================================  =========================
``repro eval '<spec.json>'``                   ``evaluate(RunSpec(...))``
``repro eval @specs.json --workers 8``         ``evaluate_many(specs, 8)``
``repro list`` (architectures section)         ``architectures(side)``
``repro run <experiment> --json``              ``run_experiment(name)``
``repro sweep ...``                            ``experiments.sweep.*``
``repro serve`` / ``repro submit``             ``repro.service``
``repro store stats``                          ``repro.store.default_store()``
=============================================  =========================

``evaluate``/``evaluate_many`` read through the persistent result
store (:mod:`repro.store`) — identical questions asked of identical
code are answered from SQLite without simulating, across processes
and machines.
"""

from repro.api.evaluate import (
    CounterInvariantError,
    cached_results,
    clear_result_cache,
    evaluate,
    evaluate_many,
    simulation_count,
)
from repro.api.parallel import parallel_map, warm_trace_cache
from repro.api.registry import (
    CACHE_SIDES,
    TECHNOLOGIES,
    ArchitectureInfo,
    architecture_ids,
    architectures,
    comparison_archs,
    get_architecture,
    register,
)
from repro.api.result import RESULT_SCHEMA_VERSION, RunResult
from repro.api.spec import ENGINES, SPEC_SCHEMA_VERSION, RunSpec

__all__ = [
    "ArchitectureInfo",
    "CACHE_SIDES",
    "CounterInvariantError",
    "ENGINES",
    "RESULT_SCHEMA_VERSION",
    "RunResult",
    "RunSpec",
    "SPEC_SCHEMA_VERSION",
    "TECHNOLOGIES",
    "architecture_ids",
    "architectures",
    "cached_results",
    "clear_result_cache",
    "comparison_archs",
    "evaluate",
    "evaluate_many",
    "get_architecture",
    "parallel_map",
    "register",
    "simulation_count",
    "warm_trace_cache",
]

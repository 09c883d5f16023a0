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
``repro sweep ...``                            ``run_experiment("sweep_*")``
``repro serve`` / ``repro submit``             ``repro.service``
``repro store stats``                          ``repro.store.default_store()``
=============================================  =========================

``evaluate``/``evaluate_many`` read through the persistent result
store (:mod:`repro.store`) — identical questions asked of identical
code are answered from SQLite without simulating, across processes
and machines.
"""

import sys
import types

from repro import _lazy_exports

#: Each public name and the module that defines it, imported on first
#: access: building, sending and reading specs and results loads
#: neither the evaluator nor the controllers and NumPy.
_EXPORTS = {
    "CACHE_SIDES": "repro.api.registry",
    "CounterInvariantError": "repro.api.evaluate",
    "ENGINES": "repro.api.spec",
    "RESULT_SCHEMA_VERSION": "repro.api.result",
    "RunResult": "repro.api.result",
    "RunSpec": "repro.api.spec",
    "SPEC_SCHEMA_VERSION": "repro.api.spec",
    "TECHNOLOGIES": "repro.api.registry",
    "architecture_ids": "repro.api.registry",
    "architectures": "repro.api.registry",
    "clear_result_cache": "repro.api.evaluate",
    "comparison_archs": "repro.api.registry",
    "evaluate": "repro.api.evaluate",
    "evaluate_many": "repro.api.evaluate",
    "get_architecture": "repro.api.registry",
    "simulation_count": "repro.api.evaluate",
    "warm_trace_cache": "repro.api.parallel",
}

__all__ = sorted(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)


class _Package(types.ModuleType):
    """Keeps ``repro.api.evaluate`` the function.

    The first import of the submodule of the same name binds this
    package's ``evaluate`` attribute to the module; the function is
    what callers import by that name.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "evaluate" and isinstance(value, types.ModuleType):
            value = value.evaluate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

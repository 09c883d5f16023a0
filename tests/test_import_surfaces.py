"""What each side of the service imports.

A client process (``repro report --url``, ``repro run --url``,
``repro submit``) builds specs, speaks HTTP and tabulates, so it loads
neither NumPy nor the simulator nor the evaluation stack.  The server
loads that stack when it starts, so its forked workers inherit it
instead of importing it per batch.  A process over a warm trace cache
evaluates without the ISA, the interpreter or any benchmark program.
The package ``__init__``s resolve their exports on first access and
must still hand out the objects their defining modules hold.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.workloads import BENCHMARK_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages a client process imports no module of.
CLIENT_FREE_PACKAGES = (
    "repro.sim", "repro.isa", "repro.replay", "repro.core",
    "repro.baselines",
)

#: Single modules a client process does not import.
CLIENT_FREE_MODULES = (
    "numpy", "multiprocessing", "repro.cache.cache",
    "repro.workloads.synthetic", "repro.api.evaluate",
    "repro.api.parallel", "repro.service.server", "repro.service.jobs",
    "repro.service.workers", "repro.store.store",
)

#: Modules a process whose traces all come from the trace cache does
#: not import: the ISA package (importing any of its modules imports
#: it), the interpreter and the benchmark programs.
TRACE_HIT_FREE_MODULES = (
    "repro.isa", "repro.sim.cpu", "repro.sim.fastcpu",
    "repro.sim.profiler", "repro.sim.memory",
    *(f"repro.workloads.{name}" for name in BENCHMARK_NAMES),
)

#: The packages whose exports resolve lazily.
LAZY_PACKAGES = (
    "repro", "repro.api", "repro.cache", "repro.workloads",
    "repro.service", "repro.sim", "repro.store",
)

CLIENT = """
import json, sys
import repro.cli
import repro.service.client
from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.experiments.registry import (
    EXPERIMENTS, EXTRA_EXPERIMENT_MODULES, get_experiment,
)
from repro.store import code_fingerprint

result_json = sys.stdin.read()
specs = [
    spec
    for name in (*EXPERIMENTS, *EXTRA_EXPERIMENT_MODULES)
    for spec in get_experiment(name).specs()
]
print(json.dumps({
    "specs": len(specs),
    "specs_round_trip": all(
        RunSpec.from_json(spec.to_json()) == spec for spec in specs
    ),
    "result_round_trips": (
        RunResult.from_json(result_json).to_json() == result_json
    ),
    "fingerprint": code_fingerprint(),
    "modules": sorted(sys.modules),
}))
"""

SERVER = """
import json, sys
import repro.service.server
print(json.dumps(sorted(sys.modules)))
"""

EVALUATE_OVER_TRACES = """
import json, sys
from repro.api import RunSpec, evaluate, warm_trace_cache
warm_trace_cache(("dct", "fft"))
results = [
    evaluate(RunSpec(*spec), use_cache=False).to_json()
    for spec in json.loads(sys.stdin.read())
]
print(json.dumps({"results": results, "modules": sorted(sys.modules)}))
"""

EVALUATE_FIRST = """
import importlib, json, types
importlib.import_module("repro.api.evaluate")
from repro.api import evaluate
print(json.dumps(isinstance(evaluate, types.FunctionType)))
"""


def _fresh_interpreter(code: str, stdin: str = ""):
    """Run ``code`` in a new interpreter; returns its printed JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_client_imports_no_simulator_and_no_numpy():
    from repro.api import RunSpec, evaluate
    from repro.experiments.registry import (
        EXPERIMENTS,
        EXTRA_EXPERIMENT_MODULES,
        get_experiment,
    )
    from repro.store import code_fingerprint

    result = evaluate(
        RunSpec(cache="dcache", arch="way-memo-2x8", workload="dct")
    )
    report = _fresh_interpreter(CLIENT, stdin=result.to_json())
    assert report["specs"] == sum(
        len(get_experiment(name).specs())
        for name in (*EXPERIMENTS, *EXTRA_EXPERIMENT_MODULES)
    )
    assert report["specs_round_trip"] and report["result_round_trips"]
    assert report["fingerprint"] == code_fingerprint()

    loaded = [
        module for module in report["modules"]
        if module in CLIENT_FREE_MODULES
        or any(module == package or module.startswith(package + ".")
               for package in CLIENT_FREE_PACKAGES)
    ]
    assert loaded == []
    # The names above are real modules, so their absence means
    # something.
    for name in (*CLIENT_FREE_PACKAGES, *CLIENT_FREE_MODULES):
        importlib.import_module(name)


def test_server_loads_the_evaluation_stack_when_imported():
    modules = set(_fresh_interpreter(SERVER))
    assert {
        "repro.api.evaluate", "repro.replay.engine", "repro.core",
        "repro.baselines",
    } <= modules


def test_warm_trace_hit_imports_no_iss_and_no_program(tmp_path,
                                                     monkeypatch):
    """The same evaluation in two fresh interpreters over one trace
    cache: the first runs the ISS and writes the archives, the second
    evaluates a D-side and an I-side spec from the archives alone."""
    from repro.api import RunSpec, evaluate

    specs = [("dcache", "way-memo-2x8", "dct"),
             ("icache", "way-memo-2x16", "fft")]
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_RESULT_STORE", "off")
    cold, warm = [
        _fresh_interpreter(EVALUATE_OVER_TRACES, stdin=json.dumps(specs))
        for _ in range(2)
    ]
    assert cold["results"] == warm["results"] == [
        evaluate(RunSpec(*spec), use_cache=False).to_json()
        for spec in specs
    ]
    assert {"repro.isa.assembler", "repro.sim.cpu",
            "repro.workloads.dct"} <= set(cold["modules"])
    loaded = sorted(set(warm["modules"]) & set(TRACE_HIT_FREE_MODULES))
    assert loaded == []
    for name in TRACE_HIT_FREE_MODULES:
        importlib.import_module(name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_are_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    exports = getattr(module, "_EXPORTS", {})
    names = getattr(module, "__all__", [])
    for name in names:
        source = exports.get(name, package)
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(source), name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == source, name
    assert set(exports) <= set(names)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_api_evaluate_stays_the_function():
    import repro.api

    evaluate_module = importlib.import_module("repro.api.evaluate")
    assert repro.api.evaluate is evaluate_module.evaluate
    # The first import of the submodule, in a fresh interpreter.
    assert _fresh_interpreter(EVALUATE_FIRST) is True

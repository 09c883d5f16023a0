"""Run the repro CLI with a timer around every layer's entry points.

    python perfbench/layers.py OUT_DIR ARG...

runs ``repro ARG...`` (the same as ``python -m repro ARG...``) after
wrapping the functions through which work enters each layer of the
program, and records every layer's *self time*: a wrapped call's
duration minus the time spent in wrapped calls nested inside it, so a
layer that calls into another is not billed twice.

The layers, and the entry points that define them:

=========  ==========================================================
load       workload traces: ISS run or trace-archive load; synthetic
           stream generation
columns    columnar pre-split of a stream: derived arrays, column
           archive load/save, list conversion
sweep      the shared cache sweep (``access_fast_batch``)
derive     per-design counter derivation: spec evaluation and grouped
           replay (every controller's replay runs inside these)
pricing    Equation (1) pricing of counters into a result
store      every result-store operation
dispatch   batching and hand-off: ``evaluate_many`` planning, worker
           task entry, job-queue writes
=========  ==========================================================

Each process keeps its own totals and rewrites ``OUT_DIR/<pid>.json``
after every outermost wrapped call returns, so the totals of forked
children (pool and service workers), which inherit the wrappers but
exit without running cleanup handlers, are on disk when they exit.
A forked child starts from zero rather than from the totals it
inherited.  Each file also counts the derived column arrays the process
computed; the main process writes ``OUT_DIR/counters-<pid>.json`` at
exit with its telemetry counters.

Only the benchmark's traced runs use this module; untraced runs start
``python -m repro`` directly, so timers never perturb the end-to-end
numbers.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: layer -> entry points, as (module, "function") or (module,
#: "Class.method"); "Class.*" wraps every function the class defines.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "load": [
        ("repro.workloads.suite", "_load_workload_cached"),
        ("repro.workloads.synthetic", "generate_synthetic"),
    ],
    "columns": [
        ("repro.replay.columns", "_ColumnsBase.*"),
        ("repro.replay.columns", "DataColumns.*"),
        ("repro.replay.columns", "FetchColumns.*"),
        ("repro.replay.columns", "columns_for_stream"),
        ("repro.replay.engine", "_columns_cached"),
    ],
    "sweep": [
        ("repro.cache.cache", "SetAssociativeCache.access_fast_batch"),
    ],
    "derive": [
        ("repro.api.evaluate", "_run"),
        ("repro.replay.engine", "replay_specs"),
        ("repro.replay.engine", "replay_counters"),
    ],
    "pricing": [
        ("repro.api.evaluate", "_finish_result"),
    ],
    "store": [
        ("repro.store.store", "ResultStore.*"),
    ],
    "dispatch": [
        ("repro.api.evaluate", "evaluate"),
        ("repro.api.evaluate", "evaluate_many"),
        ("repro.api.evaluate", "_evaluate_task"),
        ("repro.service.jobs", "JobQueue.submit"),
        ("repro.service.jobs", "JobQueue.claim_group"),
        ("repro.service.jobs", "JobQueue.complete"),
        ("repro.service.jobs", "JobQueue.fail"),
        ("repro.service.workers", "_subprocess_entry"),
    ],
}

class _Totals:
    """One process's per-layer self time."""

    def __init__(self, out_dir: Path):
        self.pid = os.getpid()
        self.out_dir = out_dir
        self.lock = threading.Lock()
        self.local = threading.local()
        self.self_s: Dict[str, float] = {}
        self.column_base = _column_stats()

    def stack(self) -> List[float]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, layer: str, seconds: float) -> None:
        with self.lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds

    def flush(self) -> None:
        stats = _column_stats()
        with self.lock:
            document = {
                "pid": self.pid,
                "self_s": dict(self.self_s),
                "column_computes": (
                    stats.get("array_computes", 0)
                    - self.column_base.get("array_computes", 0)
                ),
            }
            _write_json(self.out_dir / f"{self.pid}.json", document)


def _column_stats() -> Dict[str, int]:
    module = sys.modules.get("repro.replay.columns")
    stats = getattr(module, "column_stats", None)
    return stats() if stats is not None else {}


def _write_json(path: Path, document) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, sort_keys=True))
    os.replace(tmp, path)


_TOTALS: Dict[str, _Totals] = {}


def _totals() -> _Totals:
    """This process's totals; a forked child starts fresh ones."""
    totals = _TOTALS["current"]
    if totals.pid != os.getpid():
        totals = _TOTALS["current"] = _Totals(totals.out_dir)
    return totals


def _timed(layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        totals = _totals()
        stack = totals.stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            totals.add(layer, elapsed - nested)
            if not stack:
                totals.flush()

    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every repro module's reference to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(cls: type, name: str, layer: str) -> bool:
    original = vars(cls).get(name)
    if not inspect.isfunction(original):
        return False
    setattr(cls, name, _timed(layer, original))
    return True


def _wrap_target(layer: str, module_name: str, target: str) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, attr = target.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name, None)
        if not isinstance(cls, type):
            return False
        names = (
            [n for n, v in vars(cls).items()
             if inspect.isfunction(v)
             and (not n.startswith("__") or n == "__init__")]
            if attr == "*" else [attr]
        )
        return bool(names) and all(
            [_wrap_method(cls, name, layer) for name in names]
        )
    original = getattr(module, attr, None)
    if original is None or not callable(original):
        return False
    _rebind(original, _timed(layer, original))
    return True


def install(out_dir: Path) -> List[str]:
    """Wrap every layer's entry points; returns the ones not found."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _TOTALS["current"] = _Totals(out_dir)
    missing = []
    for layer, targets in LAYERS.items():
        for module_name, target in targets:
            if not _wrap_target(layer, module_name, target):
                missing.append(f"{module_name}:{target}")
    return missing


def _write_counters(out_dir: Path) -> None:
    """The main process's unlabelled telemetry counters."""
    from repro.telemetry import metrics

    counters = {
        entry["name"]: entry.get("value", 0.0)
        for entry in metrics.snapshot()["metrics"]
        if entry["type"] == "counter" and not entry["labels"]
    }
    _write_json(out_dir / f"counters-{os.getpid()}.json",
                {"counters": counters})


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: layers.py OUT_DIR ARG...", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    missing = install(out_dir)
    if missing:
        # A renamed entry point would silently move its layer's time
        # into other_ms; refuse to run rather than report that.
        for target in missing:
            print(f"perfbench: layer entry point not found: {target}",
                  file=sys.stderr)
        return 3
    pid = os.getpid()
    atexit.register(
        lambda: os.getpid() == pid and _write_counters(out_dir)
    )
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""End-to-end benchmark of the repro system's sweep and service paths.

Run from the root of a checkout (no build step; the package runs from
``src/``)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads — one per user path.  Every operation starts from the same
state, so every operation does the same work:

``sweep``
    ``repro sweep --grid paper`` over the two kernel benchmarks (dct,
    fft — the pair the shipped ``way-memo-sweep`` scenario sweeps): the
    paper's Nt x Ns MAB grid on both caches (48 parametric way-memo
    design points) plus the comparison baselines (22 points), one
    fresh CLI process per operation.
``service``
    ``repro report`` over the paper's tables and figures (Tables 1-3,
    Figures 4-8: 49 unique design points on the seven paper
    benchmarks) through the service, the way its client is used: each
    operation starts a fresh ``repro serve --workers 1`` and runs
    ``repro report --url`` against it, which sends the 49-point union
    as one ``POST /v1/batch``; the server loads the trace archives,
    splits the columns, evaluates in its worker subprocesses, writes
    its store, and the client tabulates and renders.  The local
    ``repro report`` runs the same evaluation in the CLI process, so it
    is not a workload of its own.

The paths replay the paper's programs, whose traces come from the
trace cache, so their inputs do not depend on the seed; the seed picks
the design points re-checked against the reference engine.  Every
operation starts with the trace archives written by set-up and no
column archives or results (a user's first report or sweep); every
CLI process and the service run with one worker, so a second core
shared with other tenants does not decide the timing.

Set-up (``setup_s``): executing the seven benchmark programs on the
ISS into a fresh trace cache, the median of five repetitions per run;
for the service, plus the median over operations of starting
``repro serve`` until ``/v1/healthz`` reports ok.

Metrics (``--trace 0``): ``latency_rel`` is the mean wall time of the
run's operations (an operation is its CLI process: a whole sweep, a
whole ``report --url``; the service's start is set-up, not latency)
divided by the mean wall time of a fixed calibration process
(``CALIBRATION``: a fresh interpreter importing what a repro process
imports and sorting, gathering and bincounting an integer array with
NumPy, none of it repro code) run CALIBRATION_REPEATS times before the
first operation and after each one.  A change that makes operations
10% faster makes the ratio 10% smaller.  Why this and not the median
of raw seconds: on a shared virtual machine the CPU switches between
a fast and a slow speed (20-60% apart) every few seconds, and the
share of time spent slow drifts over minutes, so the median operation
time of the same code spreads by as much from run to run.  Operations
and calibrations interleaved through one run see the same share, and
the ratio of their means cancels it; medians and minima do not,
because a short calibration runs at one speed or the other while a
longer operation averages both.  A calibration that starts an
interpreter and does NumPy work follows the operations' speed more
closely than an in-process interpreted loop does.  ``peak_rss_mb`` is
the median over operations of the peak resident set of the process
doing the work (for the service: the server and the workers it ran).
Raw operation and calibration seconds go to standard error.  With
``--trace 1`` every ``repro`` process runs under
``perfbench/layers.py``, which times each layer of the program from
the outside (see that file), and the metrics are per-operation layer
self times plus work counts.

Correctness: every operation must exit 0 and produce the same output
as the run's first operation, which must hold the requested tables;
the first operation's store must hold every design point, each result
with hits + misses = accesses; and a seeded sample of those results,
all computed on the fast columnar path, is recomputed with
``engine="reference"`` (the retained object-API specification) and
must match counter for counter.  In traced runs every layer must also
record time in every operation: an entry point that was renamed (the
process exits non-zero) or that the program no longer calls fails the
run instead of moving its layer's time into ``other_ms``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
benchmark writes goes under ``.bench_build/perfbench/`` in the checkout
and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
LAYERS_SHIM = HERE / "layers.py"

#: The paper's own artefacts, as registered report experiments.
PAPER_REPORT = (
    "table1_area", "table2_delay", "table3_power",
    "figure4_dcache_accesses", "figure5_dcache_power",
    "figure6_icache_accesses", "figure7_icache_power",
    "figure8_total_power",
)

#: Unique design points behind Tables 1-3 and Figures 4-8.
REPORT_POINTS = 49

#: Benchmarks of the sweep workload.
SWEEP_BENCHMARKS = ("dct", "fft")

#: ``repro sweep --grid paper``: Nt in (1, 2, 4) x Ns in (4, 8, 16, 32)
#: per cache, so 24 rows of one design point per benchmark each.
MAB_ROWS = 2 * 3 * 4

#: Each workload's ``repro`` arguments and output file; ``{out}`` is
#: the output's path, ``{url}`` the service's address.
OPERATIONS = {
    "sweep": (["sweep", "--experiment", "all", "--grid", "paper",
               "--workers", "1", "--json", "--benchmarks",
               *SWEEP_BENCHMARKS], "stdout"),
    "service": (["report", "--url", "{url}", "-o", "{out}",
                 "--workers", "1", *PAPER_REPORT], "report.md"),
}

SETUP_REPEATS = 5
REFERENCE_SAMPLES = 3
OP_TIMEOUT_S = 120.0
SERVER_READY_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0

#: The calibration process's program, and how many times it runs
#: before the first operation and after each one.
CALIBRATION = (
    "import json, sqlite3, urllib.request\n"
    "import numpy as np\n"
    "data = np.random.default_rng(0).integers(0, 1 << 20, 400_000)\n"
    "order = np.argsort(data, kind='stable')\n"
    "np.bincount(data[order] & 4095)\n"
)
CALIBRATION_REPEATS = 2

COUNTER_KEYS = (
    "accesses", "tag_accesses", "way_accesses", "cache_hits",
    "cache_misses", "loads", "stores", "mab_lookups", "mab_hits",
    "mab_bypasses", "stale_hits", "aux_accesses", "extra_cycles",
    "intra_line_hits",
)

#: Layers timed by perfbench/layers.py, reported as ``<layer>_ms``.
LAYERS = ("load", "columns", "sweep", "derive", "pricing", "store",
          "dispatch")

#: Telemetry counters reported per operation in traced runs.
TRACE_COUNTERS = {
    "simulations": "repro_simulations_total",
    "batchable_members": "repro_replay_batchable_members_total",
    "stateful_members": "repro_replay_stateful_members_total",
}


class BenchError(RuntimeError):
    """A set-up step failed; the run cannot produce a result."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

class Run:
    """One benchmark run: its checkout, scratch directory and settings."""

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.work = (root / ".bench_build" / "perfbench"
                     / f"{workload}-{seed}-{os.getpid()}")

    def env(self, directory: Path) -> Dict[str, str]:
        """A clean environment whose caches all live in ``directory``."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        tmp = directory / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env.update(
            PYTHONPATH=str(self.root / "src"),
            REPRO_TRACE_CACHE=str(directory / "traces"),
            REPRO_RESULT_STORE=str(directory / "results.sqlite"),
            REPRO_JOB_DB=str(directory / "jobs.sqlite"),
            XDG_CACHE_HOME=str(directory / "xdg"),
            TMPDIR=str(tmp),
        )
        return env

    def repro_command(self, args: Sequence[str],
                      layer_dir: Path) -> List[str]:
        """``repro ARGS``, under the layer timers in traced runs."""
        if self.trace:
            return [sys.executable, str(LAYERS_SHIM), str(layer_dir),
                    *args]
        return [sys.executable, "-m", "repro", *args]


def reap(proc: subprocess.Popen, timeout: float,
         on_timeout) -> Tuple[int, float]:
    """Wait for ``proc`` (calling ``on_timeout`` if it outlives
    ``timeout``); returns its exit code and the peak resident set, in
    MiB, of it and every descendant it waited for."""
    watchdog = threading.Timer(timeout, on_timeout)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_process(command: List[str], env: Dict[str, str], cwd: Path,
                stdout_path: Path) -> Tuple[float, int, float]:
    """Run to completion; returns (wall seconds, exit code, peak MiB)."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=env, cwd=str(cwd),
                                stdout=out, stderr=err)
        code, peak_mb = reap(proc, OP_TIMEOUT_S, proc.kill)
        return time.perf_counter() - start, code, peak_mb


def tail(path: Path, lines: int = 5) -> str:
    try:
        text = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def calibrate(run: Run, result: Outcome) -> None:
    """Run the calibration process CALIBRATION_REPEATS times, recording
    its wall seconds."""
    directory = run.work / "calibration"
    for _ in range(CALIBRATION_REPEATS):
        seconds, code, _ = run_process(
            [sys.executable, "-c", CALIBRATION], run.env(directory),
            run.root, directory / "calibration.out",
        )
        if code != 0:
            raise BenchError(
                f"calibration failed ({code}): "
                f"{tail(directory / 'calibration.err')}"
            )
        result.calibrations.append(seconds)


# ----------------------------------------------------------------------
# set-up: the trace cache
# ----------------------------------------------------------------------

WARM_TRACES = (
    "from repro.api import warm_trace_cache; warm_trace_cache()"
)


def setup_traces(run: Run) -> Tuple[List[float], Path]:
    """Execute the benchmarks into fresh trace caches, SETUP_REPEATS
    times; returns the times and the last cache directory."""
    times = []
    traces = None
    for index in range(SETUP_REPEATS):
        directory = run.work / f"setup-{index}"
        env = run.env(directory)
        seconds, code, _ = run_process(
            [sys.executable, "-c", WARM_TRACES], env, run.root,
            directory / "setup.out",
        )
        if code != 0:
            raise BenchError(
                f"trace set-up failed ({code}): "
                f"{tail(directory / 'setup.err')}"
            )
        times.append(seconds)
        traces = directory / "traces"
    if not traces or not any(traces.glob("*.npz")):
        raise BenchError("trace set-up wrote no trace archives")
    return times, traces


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class Server:
    """``repro serve --workers 1`` whose caches and store live in
    ``directory``; ready once ``/v1/healthz`` reports ok."""

    def __init__(self, run: Run, directory: Path, layer_dir: Path):
        self.directory = directory
        port_file = directory / "port"
        command = run.repro_command(
            ["serve", "--port", "0", "--port-file", str(port_file),
             "--workers", "1"],
            layer_dir,
        )
        self.log = open(directory / "server.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=run.env(directory), cwd=str(run.root),
            stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.url = self._wait_ready(port_file)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _wait_ready(self, port_file: Path) -> str:
        deadline = time.monotonic() + SERVER_READY_TIMEOUT_S
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited with {self.proc.returncode}: "
                    f"{tail(self.directory / 'server.log')}"
                )
            if url is None and port_file.is_file():
                port = port_file.read_text().strip()
                if port:
                    url = f"http://127.0.0.1:{port}"
            if url is not None:
                try:
                    if healthz_ok(url):
                        return url
                except (OSError, ValueError):
                    pass
            time.sleep(0.01)
        raise BenchError("server did not become ready")

    def stop(self) -> float:
        """SIGTERM (the server drains), reap it, and kill whatever is
        left of its session; returns the peak resident set in MiB of
        the server and the workers it reaped (0 if already reaped)."""
        peak_mb = 0.0
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, peak_mb = reap(self.proc, SERVER_STOP_TIMEOUT_S,
                              self._kill_session)
        self._kill_session()
        self.log.close()
        return peak_mb

    def _kill_session(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def healthz_ok(url: str) -> bool:
    with urllib.request.urlopen(f"{url}/v1/healthz",
                                timeout=5.0) as response:
        return json.loads(response.read()).get("status") == "ok"


# ----------------------------------------------------------------------
# operations: one CLI process each
# ----------------------------------------------------------------------

class Outcome:
    """What a run's operations measured and what went wrong."""

    def __init__(self):
        self.latencies: List[float] = []
        self.calibrations: List[float] = []
        self.peak_rss_mb: List[float] = []
        self.server_starts: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first_output: Optional[bytes] = None
        self.first_store: Optional[Path] = None


def operation(run: Run, op_dir: Path, args: Sequence[str],
              result: Outcome
              ) -> Tuple[float, int, float, Optional[Dict[str, float]]]:
    """One ``repro ARGS`` process (against a fresh server for the
    service); returns its wall seconds, its exit code, the peak MiB of
    the process that did the work and, in traced runs that exit 0, its
    layer figures."""
    layer_dir = op_dir / "layers"
    server = None
    if run.workload == "service":
        server = Server(run, op_dir, layer_dir)
        result.server_starts.append(server.startup_s)
        args = [a.replace("{url}", server.url) for a in args]
    try:
        before = read_layer_files(layer_dir)
        seconds, code, peak_mb = run_process(
            run.repro_command(args, layer_dir), run.env(op_dir),
            run.root, op_dir / "stdout",
        )
    finally:
        if server is not None:
            peak_mb = server.stop()
    layers = None
    if run.trace and code == 0:
        # Read once the server has exited too: it may still be writing
        # the last results through to its store when the client ends.
        layers = op_layers(layer_dir, seconds, before,
                           read_layer_files(layer_dir))
    return seconds, code, peak_mb, layers


def operations(run: Run, traces: Path, result: Outcome,
               check_output) -> None:
    """Run the workload's operations for ``run.seconds``, calibrating
    before the first and after each one."""
    args, output_name = OPERATIONS[run.workload]
    started = time.perf_counter()
    durations = []
    calibrate(run, result)
    index = 0
    while True:
        op_started = time.perf_counter()
        op_dir = run.work / f"op-{index}"
        shutil.copytree(traces, op_dir / "traces")
        output_path = op_dir / output_name
        result.attempted += 1
        seconds, code, peak_mb, layers = operation(
            run, op_dir,
            [a.replace("{out}", str(output_path)) for a in args],
            result,
        )
        calibrate(run, result)
        problem = None
        if code != 0:
            problem = f"exit {code}: {tail(op_dir / 'stdout.err')}"
        elif not output_path.is_file():
            problem = f"no output {output_name}"
        else:
            output = output_path.read_bytes()
            if result.first_output is None:
                problem = check_output(output)
                result.first_output = output
                result.first_store = op_dir / "results.sqlite"
            elif output != result.first_output:
                problem = "output differs from the run's first operation"
        if layers is not None:
            result.layers.append(layers)
            idle = [name for name in LAYERS if layers[f"{name}_ms"] <= 0]
            if idle and not problem:
                problem = f"no time recorded in layer(s) {', '.join(idle)}"
        if problem:
            result.failed += 1
            result.problems.append(f"op {index}: {problem}")
        else:
            result.latencies.append(seconds)
            result.peak_rss_mb.append(peak_mb)
        if index > 0:
            shutil.rmtree(op_dir, ignore_errors=True)
        else:
            shutil.rmtree(op_dir / "traces", ignore_errors=True)
        index += 1
        durations.append(time.perf_counter() - op_started)
        elapsed = time.perf_counter() - started
        if (result.failed
                or elapsed + statistics.median(durations) > run.seconds):
            return


def op_layers(layer_dir: Path, wall_s: float, before, after
              ) -> Dict[str, float]:
    """Per-layer milliseconds and counts of one traced operation: the
    layer self times every process added between the ``before`` and
    ``after`` snapshots, and the telemetry counters of the operation's
    main processes."""
    self_s = {layer: after[0].get(layer, 0.0) - before[0].get(layer, 0.0)
              for layer in LAYERS}
    metrics = {f"{layer}_ms": 1e3 * seconds
               for layer, seconds in self_s.items()}
    metrics["other_ms"] = 1e3 * (wall_s - sum(self_s.values()))
    metrics["column_computes"] = float(after[1] - before[1])
    counters: Dict[str, float] = {}
    for path in layer_dir.glob("counters-*.json"):
        for name, value in json.loads(path.read_text())["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    for name, counter in TRACE_COUNTERS.items():
        metrics[name] = counters.get(counter, 0.0)
    return metrics


def read_layer_files(layer_dir: Path) -> Tuple[Dict[str, float], int]:
    """Every process's layer self times and column computes, summed."""
    self_s: Dict[str, float] = {}
    column_computes = 0
    for path in layer_dir.glob("[0-9]*.json"):
        document = json.loads(path.read_text())
        for layer, seconds in document["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        column_computes += int(document.get("column_computes", 0))
    return self_s, column_computes


def stored_results(run: Run, store: Path) -> List[dict]:
    """Every result document in one operation's result store."""
    directory = store.parent
    export = directory / "export.jsonl"
    env = run.env(directory)
    _, code, _ = run_process(
        [sys.executable, "-m", "repro", "store", "export", "-o",
         str(export)],
        env, run.root, directory / "export.out",
    )
    if code != 0 or not export.is_file():
        return []
    return [json.loads(line)["result"]
            for line in export.read_text().splitlines() if line.strip()]


def check_report(output: bytes) -> Optional[str]:
    text = output.decode("utf-8", errors="replace")
    sections = sum(1 for line in text.splitlines()
                   if line.startswith("## "))
    if sections != len(PAPER_REPORT):
        return (f"report has {sections} sections, expected "
                f"{len(PAPER_REPORT)}")
    if f"Experiments: {', '.join(PAPER_REPORT)}" not in text:
        return "report does not list the requested experiments"
    return None


def sweep_points(output: bytes) -> int:
    """Design points behind ``repro sweep --json`` output: one per
    benchmark per row of the MAB and baseline tables; 0 when the
    output is not the expected pair of tables."""
    try:
        tables = json.loads(output)
    except ValueError:
        return 0
    names = [table.get("name") for table in tables]
    if names != ["sweep_mab_size", "sweep_baselines"]:
        return 0
    if len(tables[0]["rows"]) != MAB_ROWS:
        return 0
    return len(SWEEP_BENCHMARKS) * sum(len(t["rows"]) for t in tables)


def check_sweep(output: bytes) -> Optional[str]:
    if not sweep_points(output):
        return "sweep output is not the MAB and baseline tables"
    return None


def run_workload(run: Run) -> dict:
    setup_times, traces = setup_traces(run)
    result = Outcome()
    sweep = run.workload == "sweep"
    operations(run, traces, result, check_sweep if sweep else check_report)
    expected_points = REPORT_POINTS
    if sweep and result.first_output is not None:
        expected_points = sweep_points(result.first_output)

    if result.first_store is not None:
        documents = stored_results(run, result.first_store)
        if len(documents) != expected_points:
            result.problems.append(
                f"store holds {len(documents)} results, expected "
                f"{expected_points}"
            )
        else:
            result.problems.extend(filter(None, map(counter_problem,
                                                    documents)))
            result.problems.extend(
                reference_check(run, traces.parent, documents)
            )
    setup_s = statistics.median(setup_times)
    if result.server_starts:
        setup_s += statistics.median(result.server_starts)
    return summarize(run, result, setup_s)


# ----------------------------------------------------------------------
# correctness: the fast path against the reference engine
# ----------------------------------------------------------------------

def counter_problem(document: dict) -> Optional[str]:
    counters = document.get("counters", {})
    if (counters.get("cache_hits", -1) + counters.get("cache_misses", -1)
            != counters.get("accesses")):
        return f"hits + misses != accesses for {document.get('spec')}"
    return None


def reference_check(run: Run, directory: Path,
                    documents: List[dict]) -> List[str]:
    """Recompute a seeded sample with engine="reference"; returns the
    mismatches found."""
    sample = run.rng.sample(documents,
                            min(REFERENCE_SAMPLES, len(documents)))
    specs = [dict(d["spec"], engine="reference") for d in sample]
    check_dir = directory / "reference"
    check_dir.mkdir(parents=True, exist_ok=True)
    env = run.env(check_dir)
    env["REPRO_TRACE_CACHE"] = str(directory / "traces")
    env["REPRO_RESULT_STORE"] = "off"
    _, code, _ = run_process(
        [sys.executable, "-m", "repro", "eval", json.dumps(specs),
         "--indent", "0"],
        env, run.root, check_dir / "eval.out",
    )
    if code != 0:
        return [f"reference eval failed: {tail(check_dir / 'eval.err')}"]
    references = json.loads((check_dir / "eval.out").read_text())
    problems = []
    for fast, reference in zip(sample, references):
        fast_counts = {k: fast["counters"][k] for k in COUNTER_KEYS}
        ref_counts = {k: reference["counters"][k] for k in COUNTER_KEYS}
        if (fast_counts != ref_counts
                or fast["cycles"] != reference["cycles"]
                or fast["power_mw"] != reference["power_mw"]):
            problems.append(
                f"fast result differs from the reference engine for "
                f"{json.dumps(fast['spec'], sort_keys=True)}"
            )
    return problems


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def summarize(run: Run, result: Outcome, setup_s: float) -> dict:
    for problem in result.problems:
        log(problem)
    correct = not result.problems and bool(result.latencies)
    if run.trace:
        metrics = {
            name: statistics.median(op[name] for op in result.layers)
            for name in result.layers[0]
        } if result.layers else {}
    else:
        metrics = {
            "latency_rel": statistics.fmean(result.latencies)
            / statistics.fmean(result.calibrations)
            if result.latencies else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(result.peak_rss_mb)
            if result.peak_rss_mb else 0.0,
        }
    latencies = sorted(result.latencies)
    if latencies:
        log(f"{run.workload}: {len(latencies)} operations, median "
            f"{statistics.median(latencies):.4f} s, min "
            f"{latencies[0]:.4f} s, max {latencies[-1]:.4f} s; set-up "
            f"{setup_s:.4f} s")
        log("operation seconds: "
            + " ".join(f"{t:.4f}" for t in result.latencies))
        log("calibration seconds: "
            + " ".join(f"{t:.4f}" for t in result.calibrations))
    return {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def metric_units(trace: bool) -> Dict[str, str]:
    if not trace:
        return {"latency_rel": "x", "setup_s": "s",
                "peak_rss_mb": "MiB"}
    units = {f"{layer}_ms": "ms" for layer in LAYERS}
    units["other_ms"] = "ms"
    units["column_computes"] = "count"
    units.update({name: "count" for name in TRACE_COUNTERS})
    return units


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro's user paths."
    )
    parser.add_argument("--workload", required=True,
                        choices=tuple(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro package under {root / 'src'}; run from the root "
            "of a checkout")
        return 2
    run = Run(root, args.workload, args.seed, args.seconds,
              bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        document = run_workload(run)
    except BenchError as exc:
        log(str(exc))
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    units = metric_units(run.trace)
    document["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in document["metrics"].items()
    }
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

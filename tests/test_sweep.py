"""Determinism and equivalence tests for the parallel sweep harness.

A sweep is an ablation table on a wider grid, evaluated as one
``fetch_results`` batch that fans (architecture, benchmark) points out
over a multiprocessing pool and reduces in the parent; these tests
lock down the contract that the *result bytes* never depend on the
worker count or on whether the on-disk trace cache was cold or warm:

* in-process: the ``sweep_mab_size`` / ``sweep_baselines`` tables
  for 1 worker == for N workers, and the paper sub-grid matches the
  serial ``ablation_mab_size`` / ``extension_baselines`` experiments;
* subprocess (fresh interpreter, private ``$REPRO_TRACE_CACHE``): the
  CLI's ``--json`` output is byte-identical for a cold cache with 2
  workers, a warm cache with 1 worker and a warm cache with 4 workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import (
    ablation_mab_size,
    extension_baselines,
    run_experiment,
)
from repro.experiments.registry import fetch_results
from repro.experiments.reporting import render
from repro.experiments.sweep import (
    tabulate_baseline_sweep,
    tabulate_mab_sweep,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: A cheap sub-grid/sub-suite for the in-process determinism checks.
SMALL_GRID = ((1, 2), (4, 8))
SMALL_SUITE = ("dct", "fft")


def test_sweep_mab_size_invariant_under_worker_count():
    specs = ablation_mab_size.specs(*SMALL_GRID, SMALL_SUITE)
    serial = tabulate_mab_sweep(
        fetch_results(specs, workers=1), *SMALL_GRID, SMALL_SUITE
    )
    pooled = tabulate_mab_sweep(
        fetch_results(specs, workers=3), *SMALL_GRID, SMALL_SUITE
    )
    assert render(serial) == render(pooled)
    assert serial.rows == pooled.rows
    assert serial.notes == pooled.notes


def test_sweep_baselines_invariant_under_worker_count():
    specs = extension_baselines.specs(SMALL_SUITE)
    serial = tabulate_baseline_sweep(
        fetch_results(specs, workers=1), SMALL_SUITE
    )
    pooled = tabulate_baseline_sweep(
        fetch_results(specs, workers=2), SMALL_SUITE
    )
    assert render(serial) == render(pooled)
    assert serial.rows == pooled.rows


def test_sweep_baselines_matches_serial_experiment():
    """The parallel fan-out reproduces extension_baselines exactly."""
    serial = run_experiment("extension_baselines")
    pooled = tabulate_baseline_sweep(
        fetch_results(extension_baselines.specs(), workers=2)
    )
    assert pooled.rows == serial.rows


def test_sweep_mab_size_paper_grid_matches_ablation():
    """The paper sub-grid agrees with the serial ablation experiment."""
    serial = run_experiment("ablation_mab_size")
    grid = (ablation_mab_size.TAG_ENTRIES, ablation_mab_size.INDEX_ENTRIES)
    pooled = tabulate_mab_sweep(
        fetch_results(ablation_mab_size.specs(*grid), workers=2), *grid
    )
    assert pooled.rows == serial.rows


def _run_sweep_cli(cache_dir: Path, workers: int) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_TRACE_CACHE"] = str(cache_dir)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.sweep",
            "--experiment", "mab-size", "--grid", "paper",
            "--benchmarks", "dct", "fft",
            "--workers", str(workers), "--json",
        ],
        capture_output=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_sweep_cli_deterministic_cold_vs_warm_and_worker_count(tmp_path):
    """Full-process check: cold cache + pool == warm cache, any pool.

    The first invocation starts from an empty trace cache directory
    (the parent runs the ISS once per program and persists the
    traces); the later invocations hit the warm cache with different
    worker counts.  All three must print byte-identical JSON.
    """
    cache_dir = tmp_path / "trace-cache"
    cold = _run_sweep_cli(cache_dir, workers=2)
    archives = list(cache_dir.glob("*.npz"))
    assert len(archives) == 2, "cold run must persist dct + fft traces"
    warm_serial = _run_sweep_cli(cache_dir, workers=1)
    warm_pooled = _run_sweep_cli(cache_dir, workers=4)
    assert cold == warm_serial == warm_pooled
    # Sanity: the payload is real (both caches swept, optima marked).
    payload = json.loads(cold)
    rows = payload[0]["rows"]
    assert {r["cache"] for r in rows} == {"dcache", "icache"}
    assert any(r["optimal"] for r in rows)


def test_sweep_cli_sends_one_batch_with_one_sweep_per_stream(
    tmp_path, monkeypatch, capsys
):
    """Local ``repro sweep --experiment all`` evaluates the MAB grid and
    the baselines as one batch, so each (side, benchmark) stream is
    swept once, not once per sweep."""
    from repro.api import clear_result_cache
    from repro.experiments import sweep
    from repro.store import STORE_ENV, reset_default_stores
    from repro.telemetry import metrics as telemetry

    monkeypatch.setenv(STORE_ENV, str(tmp_path / "results.sqlite"))
    reset_default_stores()
    clear_result_cache()
    sweeps = telemetry.counter("repro_replay_shared_sweeps_total")
    before = sweeps.value
    try:
        assert sweep.main([
            "--benchmarks", "dct", "fft", "--grid", "paper",
            "--workers", "1", "--json",
        ]) == 0
    finally:
        clear_result_cache()
        reset_default_stores()
    assert sweeps.value - before == 2 * 2  # sides x benchmarks
    names = [table["name"] for table in json.loads(capsys.readouterr().out)]
    assert names == ["sweep_mab_size", "sweep_baselines"]


def test_sweeps_are_registered_catalog_experiments():
    """Both sweeps resolve as first-class registry records (full
    default grids) without joining the paper report enumeration."""
    from repro.experiments.registry import (
        EXPERIMENTS,
        experiment_catalog,
        get_experiment,
    )

    record = get_experiment("sweep_mab_size")
    assert record.category == "sweep"
    assert len(record.specs()) == 2 * 4 * 6 * 7  # sides x Nt x Ns x suite
    baselines = get_experiment("sweep_baselines")
    assert baselines.category == "sweep"
    assert len(baselines.specs()) > 0
    catalog = experiment_catalog()
    assert "sweep_mab_size" in catalog and "sweep_baselines" in catalog
    assert "sweep_mab_size" not in EXPERIMENTS


def test_sweep_tabulate_is_pure_over_prefetched_results():
    """Tabulating a prefetched result map replays nothing and renders
    the same bytes every time."""
    from repro.api import simulation_count

    specs = ablation_mab_size.specs(*SMALL_GRID, SMALL_SUITE)
    results = fetch_results(specs, workers=1)
    before = simulation_count()
    a = render(tabulate_mab_sweep(results, *SMALL_GRID, SMALL_SUITE))
    b = render(tabulate_mab_sweep(results, *SMALL_GRID, SMALL_SUITE))
    assert a == b
    assert simulation_count() == before

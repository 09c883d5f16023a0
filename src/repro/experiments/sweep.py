"""Parallel sweep harness: full design-space grids over the trace cache.

The fast kernels make a single (architecture, benchmark) replay cheap;
this module scales that to whole design spaces by expressing every
point as a declarative :class:`~repro.api.spec.RunSpec` and fanning
the batch through :func:`repro.api.evaluate_many`:

* :func:`sweep_mab_size` — ``ablation_mab_size`` widened to the full
  Nt x Ns grid (default 4 x 6 = 24 points per cache, 336 controller
  runs over the bundled suite) for **both** caches.
* :func:`sweep_baselines` — ``extension_baselines`` parallelized
  across every (baseline, workload) point.

Both sweeps are registered experiments (``sweep_mab_size`` /
``sweep_baselines``, at their full default grids): spec declaration
and tabulation are split into a pure pair, so ``repro run
sweep_mab_size``, ``repro run --url`` against a remote service and
``POST /v1/experiments/sweep_mab_size`` all ride the same
``run_experiment`` path as the paper artefacts.  They stay out of the
default report (:data:`~repro.experiments.registry.EXPERIMENTS`) —
336 runs is a deliberate request, not a report side effect.

Workers never run the ISS: ``evaluate_many`` warms the shared on-disk
trace cache (``$REPRO_TRACE_CACHE``, see ``repro.workloads.suite``)
before forking, so each worker just loads the ``.npz`` arrays (or
inherits the parent's in-process cache under the fork start method),
and batches read through the persistent result store
(``$REPRO_RESULT_STORE``, see :mod:`repro.store`): re-running a sweep
against a warm store replays nothing at all and still renders
identical bytes.  Each design point is evaluated in a single worker
and the parent reduces the per-point values in a fixed order, so the
result — rendered table and raw rows — is byte-identical for any
worker count and for cold vs. warm trace caches
(``tests/test_sweep.py`` locks this down).

CLI::

    python -m repro.experiments.sweep --workers 8          # everything
    python -m repro.experiments.sweep --experiment mab-size \
        --grid paper --workers 4 --json
    repro sweep --experiment baselines                      # via the CLI
    repro sweep --url http://host:8321                      # remote
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.api import evaluate_many, warm_trace_cache
from repro.api.spec import RunSpec
from repro.experiments.ablation_mab_size import mab_spec
from repro.experiments.extension_baselines import D_ARCHS, I_ARCHS
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    keyed_results,
    register,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult, render
from repro.experiments.runner import arch_spec, average
from repro.workloads import BENCHMARK_NAMES

#: The paper's (Nt, Ns) grid (plus Nt=4), as swept by ablation_mab_size.
PAPER_TAG_ENTRIES: Tuple[int, ...] = (1, 2, 4)
PAPER_INDEX_ENTRIES: Tuple[int, ...] = (4, 8, 16, 32)

#: The full design-space grid the fast kernels make affordable.
FULL_TAG_ENTRIES: Tuple[int, ...] = (1, 2, 4, 8)
FULL_INDEX_ENTRIES: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)

MAB_SIZE_TITLE = (
    "Sweep: full MAB design space "
    "(average over the selected benchmarks)"
)
MAB_SIZE_PAPER = (
    "paper: 2x8 optimal for D-cache; 2x8 or 2x16 for I-cache "
    "depending on the program"
)
BASELINES_TITLE = (
    "Sweep: penalty-laden alternatives vs way memoization "
    "(averages over the selected benchmarks)"
)
BASELINES_PAPER = (
    "filter cache / way prediction / two-phase save energy "
    "but add cycles; way memoization adds none"
)


# ----------------------------------------------------------------------
# MAB design-space sweep
# ----------------------------------------------------------------------

def mab_sweep_specs(
    tag_entries: Sequence[int] = FULL_TAG_ENTRIES,
    index_entries: Sequence[int] = FULL_INDEX_ENTRIES,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> List[RunSpec]:
    """Every (cache, Nt, Ns, benchmark) design point of the grid."""
    return [
        mab_spec(cache_name, nt, ns, benchmark)
        for cache_name in ("dcache", "icache")
        for nt in tag_entries
        for ns in index_entries
        for benchmark in benchmarks
    ]


def tabulate_mab_sweep(
    results: ResultMap,
    tag_entries: Sequence[int] = FULL_TAG_ENTRIES,
    index_entries: Sequence[int] = FULL_INDEX_ENTRIES,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> ExperimentResult:
    """Reduce the grid, purely over ``{spec.key(): RunResult}``."""
    tag_entries = tuple(tag_entries)
    index_entries = tuple(index_entries)
    benchmarks = tuple(benchmarks)
    result = ExperimentResult(
        name="sweep_mab_size",
        title=MAB_SIZE_TITLE,
        columns=(
            "cache", "mab", "mab_hit_rate", "tags_per_access",
            "avg_power_mw", "optimal",
        ),
        paper_reference=MAB_SIZE_PAPER,
    )
    for cache_name in ("dcache", "icache"):
        rows = []
        for nt in tag_entries:
            for ns in index_entries:
                vals = [
                    spec_result(
                        results, mab_spec(cache_name, nt, ns, benchmark)
                    )
                    for benchmark in benchmarks
                ]
                rows.append({
                    "cache": cache_name,
                    "mab": f"{nt}x{ns}",
                    "mab_hit_rate": average(
                        p.counters.mab_hit_rate for p in vals
                    ),
                    "tags_per_access": average(
                        p.counters.tags_per_access for p in vals
                    ),
                    "avg_power_mw": average(
                        p.power.total_mw for p in vals
                    ),
                })
        best = min(rows, key=lambda r: r["avg_power_mw"])
        for row in rows:
            row["optimal"] = "<== optimal" if row is best else ""
            result.rows.append(row)
        result.notes.append(
            f"{cache_name}: power-optimal configuration {best['mab']} "
            f"at {best['avg_power_mw']:.2f} mW average"
        )
    runs = 2 * len(tag_entries) * len(index_entries) * len(benchmarks)
    result.notes.append(
        f"grid: {len(tag_entries)}x{len(index_entries)} configurations "
        f"per cache x {len(benchmarks)} benchmarks = {runs} runs"
    )
    return result


def sweep_mab_size(
    tag_entries: Sequence[int] = FULL_TAG_ENTRIES,
    index_entries: Sequence[int] = FULL_INDEX_ENTRIES,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    workers: Optional[int] = None,
    results: Optional[ResultMap] = None,
) -> ExperimentResult:
    """Full (Nt, Ns) grid for both caches, averaged over the suite.

    Same row/column shape as ``ablation_mab_size`` (which it subsumes:
    the paper grid is a sub-rectangle of the default full grid), with
    the per-benchmark design points fanned out across workers as one
    ``evaluate_many`` batch — or looked up in ``results`` when a
    prefetched/remote batch is supplied.
    """
    specs = mab_sweep_specs(tag_entries, index_entries, benchmarks)
    if results is None:
        warm_trace_cache(tuple(benchmarks))
        results = keyed_results(
            specs, evaluate_many(specs, workers=workers)
        )
    return tabulate_mab_sweep(
        results, tag_entries, index_entries, benchmarks
    )


# ----------------------------------------------------------------------
# baseline comparison sweep
# ----------------------------------------------------------------------

def baseline_sweep_specs(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> List[RunSpec]:
    """Every (cache, baseline architecture, benchmark) point."""
    return [
        arch_spec(cache_name, arch, benchmark)
        for cache_name, archs in (("dcache", D_ARCHS), ("icache", I_ARCHS))
        for arch in archs
        for benchmark in benchmarks
    ]


def tabulate_baseline_sweep(
    results: ResultMap,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> ExperimentResult:
    """Reduce per architecture, purely over the result map."""
    benchmarks = tuple(benchmarks)
    result = ExperimentResult(
        name="sweep_baselines",
        title=BASELINES_TITLE,
        columns=(
            "cache", "architecture", "avg_power_mw",
            "avg_slowdown_pct", "avg_tags_per_access",
        ),
        paper_reference=BASELINES_PAPER,
    )
    for cache_name, archs in (("dcache", D_ARCHS), ("icache", I_ARCHS)):
        for arch in archs:
            vals = [
                spec_result(
                    results, arch_spec(cache_name, arch, benchmark)
                )
                for benchmark in benchmarks
            ]
            result.add_row(
                cache=cache_name,
                architecture=arch,
                avg_power_mw=average(p.power.total_mw for p in vals),
                avg_slowdown_pct=average(
                    100.0 * p.counters.extra_cycles / p.cycles
                    for p in vals
                ),
                avg_tags_per_access=average(
                    p.counters.tags_per_access for p in vals
                ),
            )
    result.notes.append(
        "slowdown = extra cycles / baseline cycles; way memoization "
        "is the only technique at exactly 0"
    )
    points = (len(D_ARCHS) + len(I_ARCHS)) * len(benchmarks)
    result.notes.append(
        f"{points} (cache, architecture, benchmark) points"
    )
    return result


def sweep_baselines(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    workers: Optional[int] = None,
    results: Optional[ResultMap] = None,
) -> ExperimentResult:
    """``extension_baselines`` fanned out per (baseline, workload)."""
    specs = baseline_sweep_specs(benchmarks)
    if results is None:
        warm_trace_cache(tuple(benchmarks))
        results = keyed_results(
            specs, evaluate_many(specs, workers=workers)
        )
    return tabulate_baseline_sweep(results, benchmarks)


# ----------------------------------------------------------------------
# registry records (full default grids)
# ----------------------------------------------------------------------

register(Experiment(
    name="sweep_mab_size",
    title=MAB_SIZE_TITLE,
    specs=mab_sweep_specs,
    tabulate=tabulate_mab_sweep,
    paper_reference=MAB_SIZE_PAPER,
    category="sweep",
))

register(Experiment(
    name="sweep_baselines",
    title=BASELINES_TITLE,
    specs=baseline_sweep_specs,
    tabulate=tabulate_baseline_sweep,
    paper_reference=BASELINES_PAPER,
    category="sweep",
))


#: The sweeps ``repro sweep`` / ``repro list`` expose.
SWEEPS = {
    "mab-size": (
        "full (Nt, Ns) MAB grid for both caches [sweep_mab_size]"
    ),
    "baselines": (
        "every comparison baseline x workload [sweep_baselines]"
    ),
}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _results_to_json(results: Iterable[ExperimentResult]) -> str:
    payload = [
        {
            "name": r.name,
            "title": r.title,
            "columns": list(r.columns),
            "rows": r.rows,
            "notes": r.notes,
        }
        for r in results
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Parallel design-space sweeps over the shared trace cache"
        ),
    )
    parser.add_argument(
        "--experiment", choices=("mab-size", "baselines", "all"),
        default="all", help="which sweep to run (default: all)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: all cores; 1 = serial)",
    )
    parser.add_argument(
        "--grid", choices=("paper", "full"), default="full",
        help="MAB grid: the paper's 3x4 points or the full 4x6 grid",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", metavar="NAME",
        default=list(BENCHMARK_NAMES), choices=BENCHMARK_NAMES,
        help="benchmark subset (default: the whole suite)",
    )
    parser.add_argument(
        "--url", metavar="URL", default=None,
        help="evaluate on a running repro service instead of locally",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    args = parser.parse_args(argv)

    if args.grid == "paper":
        grid = (PAPER_TAG_ENTRIES, PAPER_INDEX_ENTRIES)
    else:
        grid = (FULL_TAG_ENTRIES, FULL_INDEX_ENTRIES)
    jobs = []  # (specs builder, tabulate closure)
    if args.experiment in ("mab-size", "all"):
        jobs.append((
            lambda: mab_sweep_specs(grid[0], grid[1], args.benchmarks),
            lambda rs: tabulate_mab_sweep(
                rs, grid[0], grid[1], args.benchmarks
            ),
        ))
    if args.experiment in ("baselines", "all"):
        jobs.append((
            lambda: baseline_sweep_specs(args.benchmarks),
            lambda rs: tabulate_baseline_sweep(rs, args.benchmarks),
        ))

    # Every sweep's points travel as one deduplicated batch, so each
    # (side, workload) stream is swept once, locally or remotely.
    from repro.experiments.report import fetch_results

    records = [
        Experiment(name=f"cli-sweep-{i}", title="", specs=specs,
                   tabulate=tabulate)
        for i, (specs, tabulate) in enumerate(jobs)
    ]
    if args.url is not None:
        try:
            fetched = fetch_results(records, url=args.url)
        except Exception as exc:  # connection/protocol errors
            print(
                f"error: service at {args.url} failed: {exc}",
                file=sys.stderr,
            )
            return 1
    else:
        warm_trace_cache(tuple(args.benchmarks))
        fetched = fetch_results(records, workers=args.workers)
    results = [tabulate(fetched) for _, tabulate in jobs]

    if args.json:
        print(_results_to_json(results))
    else:
        print("\n\n".join(render(r) for r in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

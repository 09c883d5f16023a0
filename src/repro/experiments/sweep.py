"""Design-space sweeps: two ablation tables on wider grids.

Each sweep is a registered experiment that reuses an ablation's specs
and tabulation and adds only its own name, title, default grid and
one note:

* ``sweep_mab_size`` — ``ablation_mab_size`` on the full Nt x Ns grid
  (default 4 x 6 = 24 points per cache, 336 controller runs over the
  bundled suite) for **both** caches; the paper grid is a
  sub-rectangle of it.
* ``sweep_baselines`` — ``extension_baselines`` over any benchmark
  subset.

``repro run sweep_mab_size``, ``repro run --url`` against a remote
service and ``POST /v1/experiments/sweep_mab_size`` evaluate them like
any other experiment.  They stay out of the default report
(:data:`~repro.experiments.registry.EXPERIMENTS`) — 336 runs is a
deliberate request, not a report side effect.

``repro sweep`` picks the sweeps, the grid and the benchmarks, and
evaluates every chosen point as one
:func:`~repro.experiments.registry.fetch_results` batch, so each
(side, workload) stream is swept once.  The batch reads through the
persistent result store (``$REPRO_RESULT_STORE``, see
:mod:`repro.store`), and the shared on-disk trace cache is warmed
before forking, so workers never run the ISS.  Each
design point is evaluated in a single worker and the parent reduces
in a fixed order, so the tables and raw rows are byte-identical for
any worker count and for cold vs. warm trace caches
(``tests/test_sweep.py`` locks this down).

CLI::

    python -m repro.experiments.sweep --workers 8          # everything
    python -m repro.experiments.sweep --experiment mab-size \\
        --grid paper --workers 4 --json
    repro sweep --experiment baselines                      # via the CLI
    repro sweep --url http://host:8321                      # remote
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.experiments import ablation_mab_size, extension_baselines
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    fetch_results,
    register,
)
from repro.experiments.reporting import ExperimentResult, render
from repro.workloads import BENCHMARK_NAMES

#: The full design-space grid the fast kernels make affordable.
FULL_TAG_ENTRIES: Tuple[int, ...] = (1, 2, 4, 8)
FULL_INDEX_ENTRIES: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)


def _sweep_table(
    record: Experiment, table: ExperimentResult, note: str
) -> ExperimentResult:
    """An ablation's ``table`` under ``record``'s name and title, with
    ``note`` appended."""
    return dataclasses.replace(
        table, name=record.name, title=record.title,
        notes=table.notes + [note],
    )


def tabulate_mab_sweep(
    results: ResultMap,
    tag_entries: Sequence[int] = FULL_TAG_ENTRIES,
    index_entries: Sequence[int] = FULL_INDEX_ENTRIES,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> ExperimentResult:
    """``ablation_mab_size``'s table on the given grid."""
    runs = 2 * len(tag_entries) * len(index_entries) * len(benchmarks)
    return _sweep_table(
        MAB_SWEEP,
        ablation_mab_size.tabulate(
            results, tag_entries, index_entries, benchmarks
        ),
        f"grid: {len(tag_entries)}x{len(index_entries)} configurations "
        f"per cache x {len(benchmarks)} benchmarks = {runs} runs",
    )


def tabulate_baseline_sweep(
    results: ResultMap,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> ExperimentResult:
    """``extension_baselines``' table over the given benchmarks."""
    archs = (
        len(extension_baselines.D_ARCHS)
        + len(extension_baselines.I_ARCHS)
    )
    return _sweep_table(
        BASELINE_SWEEP,
        extension_baselines.tabulate(results, benchmarks),
        f"{archs * len(benchmarks)} (cache, architecture, benchmark) "
        "points",
    )


MAB_SWEEP = register(Experiment(
    name="sweep_mab_size",
    title=(
        "Sweep: full MAB design space "
        "(average over the selected benchmarks)"
    ),
    specs=partial(
        ablation_mab_size.specs, FULL_TAG_ENTRIES, FULL_INDEX_ENTRIES
    ),
    tabulate=tabulate_mab_sweep,
    paper_reference=ablation_mab_size.EXPERIMENT.paper_reference,
    category="sweep",
))

BASELINE_SWEEP = register(Experiment(
    name="sweep_baselines",
    title=(
        "Sweep: penalty-laden alternatives vs way memoization "
        "(averages over the selected benchmarks)"
    ),
    specs=extension_baselines.specs,
    tabulate=tabulate_baseline_sweep,
    paper_reference=extension_baselines.EXPERIMENT.paper_reference,
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

    grid = (
        (ablation_mab_size.TAG_ENTRIES, ablation_mab_size.INDEX_ENTRIES)
        if args.grid == "paper"
        else (FULL_TAG_ENTRIES, FULL_INDEX_ENTRIES)
    )
    specs, tabulations = [], []
    if args.experiment in ("mab-size", "all"):
        specs += ablation_mab_size.specs(*grid, args.benchmarks)
        tabulations.append(
            partial(tabulate_mab_sweep, tag_entries=grid[0],
                    index_entries=grid[1], benchmarks=args.benchmarks)
        )
    if args.experiment in ("baselines", "all"):
        specs += extension_baselines.specs(args.benchmarks)
        tabulations.append(
            partial(tabulate_baseline_sweep, benchmarks=args.benchmarks)
        )

    if args.url is None:
        from repro.api import warm_trace_cache

        # Persist the chosen benchmarks' traces even when the store
        # answers every point, so later sweeps never run the ISS.
        warm_trace_cache(tuple(args.benchmarks))
    try:
        fetched = fetch_results(specs, workers=args.workers, url=args.url)
    except Exception as exc:  # connection/protocol errors
        if args.url is None:
            raise
        print(
            f"error: service at {args.url} failed: {exc}",
            file=sys.stderr,
        )
        return 1
    results = [tabulate(fetched) for tabulate in tabulations]

    if args.json:
        print(_results_to_json(results))
    else:
        print("\n\n".join(render(r) for r in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Ablation: full MAB design-space sweep for both caches.

The paper reports only that 2x8 is power-optimal for the D-cache and
2x8/2x16 for the I-cache.  This sweep evaluates every (Nt, Ns) point
on the paper's grid (plus Nt=4) for both caches, pricing each with
Equation (1), and marks the power-optimal configuration per cache —
reproducing the paper's sizing conclusion and exposing the
hit-rate-vs-MAB-power trade-off.

Each point is one declarative ``RunSpec`` over the parametric
``way-memo`` architecture.  ``specs`` and ``tabulate`` take the grid
and the benchmarks, defaulting to the paper's; the
``sweep_mab_size`` sweep (:mod:`repro.experiments.sweep`) is this
table on a wider grid.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.api import RunSpec
from repro.cache.config import FRV_DCACHE
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    register,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult, average
from repro.workloads import BENCHMARK_NAMES

TAG_ENTRIES = (1, 2, 4)
INDEX_ENTRIES = (4, 8, 16, 32)


def mab_spec(
    cache: str, nt: int, ns: int, benchmark: str, **geometry: int
) -> RunSpec:
    """One parametric way-memo design point.

    ``geometry`` (``ways`` / ``size_bytes``, D-side only) overrides
    the FR-V cache; a value equal to the FR-V cache's is left out, so
    such a point is the grid's own spec and evaluates once.
    """
    params = {"tag_entries": nt, "index_entries": ns}
    params.update(
        (key, value) for key, value in geometry.items()
        if value != getattr(FRV_DCACHE, key)
    )
    return RunSpec(
        cache=cache, arch="way-memo", workload=benchmark, params=params,
    )


def specs(
    tag_entries: Sequence[int] = TAG_ENTRIES,
    index_entries: Sequence[int] = INDEX_ENTRIES,
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


def tabulate(
    results: ResultMap,
    tag_entries: Sequence[int] = TAG_ENTRIES,
    index_entries: Sequence[int] = INDEX_ENTRIES,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> ExperimentResult:
    """Average each grid point over ``benchmarks`` and mark each
    cache's power-optimal configuration."""
    result = EXPERIMENT.new_result(columns=(
        "cache", "mab", "mab_hit_rate", "tags_per_access",
        "avg_power_mw", "optimal",
    ))
    for cache_name in ("dcache", "icache"):
        rows = []
        for nt in tag_entries:
            for ns in index_entries:
                points = [
                    spec_result(
                        results, mab_spec(cache_name, nt, ns, benchmark)
                    )
                    for benchmark in benchmarks
                ]
                rows.append({
                    "cache": cache_name,
                    "mab": f"{nt}x{ns}",
                    "mab_hit_rate": average(
                        p.counters.mab_hit_rate for p in points
                    ),
                    "tags_per_access": average(
                        p.counters.tags_per_access for p in points
                    ),
                    "avg_power_mw": average(
                        p.power.total_mw for p in points
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
    return result


EXPERIMENT = register(Experiment(
    name="ablation_mab_size",
    title="Ablation: MAB size sweep (average over all benchmarks)",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "paper: 2x8 optimal for D-cache; 2x8 or 2x16 for I-cache "
        "depending on the program"
    ),
))

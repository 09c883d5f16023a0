"""Extension: the related-work techniques the paper argues against.

Section 2 dismisses three families for their performance cost: the
filter cache [6] (extra cycle on L0 misses), way prediction [9]
(extra cycle on mispredictions) and the two-phase cache [8] (extra
cycle on every access).  This experiment runs all of them next to way
memoization and reports both power and the cycle overhead — showing
the paper's key selling point: comparable or better power at *zero*
performance penalty.  ``specs`` and ``tabulate`` take the benchmarks
(default: the suite); the ``sweep_baselines`` sweep
(:mod:`repro.experiments.sweep`) is this table over a chosen subset.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.api import RunSpec, comparison_archs
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    register,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult, average
from repro.workloads import BENCHMARK_NAMES

#: Comparison sets in paper order — thin aliases over the central
#: registry's ``comparison_rank`` metadata.
D_ARCHS = comparison_archs("dcache")
I_ARCHS = comparison_archs("icache")


def specs(benchmarks: Sequence[str] = BENCHMARK_NAMES) -> List[RunSpec]:
    """Every (cache, architecture, benchmark) design point."""
    return [
        RunSpec(cache_name, arch, benchmark)
        for cache_name, archs in (("dcache", D_ARCHS), ("icache", I_ARCHS))
        for arch in archs
        for benchmark in benchmarks
    ]


def tabulate(
    results: ResultMap, benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> ExperimentResult:
    """Average each architecture over ``benchmarks``."""
    result = EXPERIMENT.new_result(columns=(
        "cache", "architecture", "avg_power_mw",
        "avg_slowdown_pct", "avg_tags_per_access",
    ))
    for cache_name, archs in (("dcache", D_ARCHS), ("icache", I_ARCHS)):
        for arch in archs:
            powers, slowdowns, tag_rates = [], [], []
            for benchmark in benchmarks:
                point = spec_result(
                    results, RunSpec(cache_name, arch, benchmark)
                )
                c, p = point.counters, point.power
                powers.append(p.total_mw)
                slowdowns.append(100.0 * c.extra_cycles / point.cycles)
                tag_rates.append(c.tags_per_access)
            result.add_row(
                cache=cache_name,
                architecture=arch,
                avg_power_mw=average(powers),
                avg_slowdown_pct=average(slowdowns),
                avg_tags_per_access=average(tag_rates),
            )
    result.notes.append(
        "slowdown = extra cycles / baseline cycles; way memoization "
        "is the only technique at exactly 0"
    )
    return result


EXPERIMENT = register(Experiment(
    name="extension_baselines",
    title=(
        "Extension: penalty-laden alternatives vs way memoization "
        "(averages over the suite)"
    ),
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "filter cache / way prediction / two-phase save energy "
        "but add cycles; way memoization adds none"
    ),
))

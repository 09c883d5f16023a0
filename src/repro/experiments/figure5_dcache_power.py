"""Figure 5: D-cache power (mW) with data/tag/auxiliary breakdown.

Original vs set buffer [14] vs way memoization (2x8 MAB), priced with
Equation (1).  Expected shape: way memoization cuts D-cache power by
roughly a third on average (paper: 35%), with the tag-power component
nearly eliminated and a small MAB adder.
"""

from __future__ import annotations

from typing import List

from repro.api import RunSpec
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    register,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult, average, savings
from repro.workloads import BENCHMARK_NAMES

ARCHS = ("original", "set-buffer", "way-memo-2x8")


def specs() -> List[RunSpec]:
    """Every design point this experiment evaluates."""
    return [
        RunSpec("dcache", arch, benchmark)
        for benchmark in BENCHMARK_NAMES
        for arch in ARCHS
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "benchmark", "architecture", "data_mw", "tag_mw",
        "aux_mw", "leak_mw", "total_mw", "saving_pct",
    ))
    for benchmark in BENCHMARK_NAMES:
        baseline = spec_result(
            results, RunSpec("dcache", "original", benchmark)
        ).power.total_mw
        for arch in ARCHS:
            p = spec_result(
                results, RunSpec("dcache", arch, benchmark)
            ).power
            result.add_row(
                benchmark=benchmark,
                architecture=arch,
                data_mw=p.data_mw,
                tag_mw=p.tag_mw,
                aux_mw=p.aux_mw,
                leak_mw=p.leakage_mw,
                total_mw=p.total_mw,
                saving_pct=100.0 * savings(baseline, p.total_mw),
            )
    avg_saving = average(
        row["saving_pct"] for row in result.rows
        if row["architecture"] == "way-memo-2x8"
    )
    result.notes.append(
        f"average way-memo saving {avg_saving:.1f}% (paper: ~35%)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="figure5_dcache_power",
    title="Figure 5: D-cache power consumption (mW)",
    specs=specs,
    tabulate=tabulate,
    paper_reference="way memoization saves ~35% on average",
))

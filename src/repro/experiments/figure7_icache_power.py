"""Figure 7: I-cache power (mW) — [4] vs way memoization.

The paper plots [4] against our approach with 2x8, 2x16 and 2x32
MABs and picks 2x16 for the processor (best power across programs,
given the 2x32's area).  Expected shape: ~25% average saving for the
2x16 MAB relative to [4].
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

ARCHS = ("panwar", "way-memo-2x8", "way-memo-2x16", "way-memo-2x32")


def specs() -> List[RunSpec]:
    """Every design point this experiment evaluates."""
    return [
        RunSpec("icache", arch, benchmark)
        for benchmark in BENCHMARK_NAMES
        for arch in ARCHS
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "benchmark", "architecture", "data_mw", "tag_mw",
        "aux_mw", "leak_mw", "total_mw", "saving_vs_panwar_pct",
    ))
    for benchmark in BENCHMARK_NAMES:
        baseline = spec_result(
            results, RunSpec("icache", "panwar", benchmark)
        ).power.total_mw
        for arch in ARCHS:
            p = spec_result(
                results, RunSpec("icache", arch, benchmark)
            ).power
            result.add_row(
                benchmark=benchmark,
                architecture=arch,
                data_mw=p.data_mw,
                tag_mw=p.tag_mw,
                aux_mw=p.aux_mw,
                leak_mw=p.leakage_mw,
                total_mw=p.total_mw,
                saving_vs_panwar_pct=100.0 * savings(baseline, p.total_mw),
            )
    avg16 = average(
        row["saving_vs_panwar_pct"] for row in result.rows
        if row["architecture"] == "way-memo-2x16"
    )
    result.notes.append(
        f"average 2x16 saving vs [4]: {avg16:.1f}% (paper: ~25%)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="figure7_icache_power",
    title="Figure 7: I-cache power consumption (mW)",
    specs=specs,
    tabulate=tabulate,
    paper_reference="2x16 MAB saves ~25% on average vs [4]",
))

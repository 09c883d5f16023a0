"""Extension: way memoization combined with a line buffer.

The paper's conclusion: "We are currently extending our approach by
combining it with the line buffer technique to achieve more saving."
This experiment implements that future work
(:class:`repro.core.line_buffer_memo.LineBufferWayMemoDCache`) and
quantifies the additional D-cache saving over plain way memoization.
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

ARCHS = ("original", "way-memo-2x8", "way-memo+line-buffer")


def specs() -> List[RunSpec]:
    """Every design point this experiment evaluates."""
    return [
        RunSpec("dcache", arch, benchmark)
        for benchmark in BENCHMARK_NAMES
        for arch in ARCHS
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "benchmark", "architecture", "ways_per_access",
        "total_mw", "saving_pct",
    ))
    for benchmark in BENCHMARK_NAMES:
        baseline = spec_result(
            results, RunSpec("dcache", "original", benchmark)
        ).power.total_mw
        for arch in ARCHS:
            point = spec_result(
                results, RunSpec("dcache", arch, benchmark)
            )
            result.add_row(
                benchmark=benchmark,
                architecture=arch,
                ways_per_access=point.counters.ways_per_access,
                total_mw=point.power.total_mw,
                saving_pct=100.0 * savings(
                    baseline, point.power.total_mw
                ),
            )
    plain = average(
        row["saving_pct"] for row in result.rows
        if row["architecture"] == "way-memo-2x8"
    )
    combined = average(
        row["saving_pct"] for row in result.rows
        if row["architecture"] == "way-memo+line-buffer"
    )
    result.notes.append(
        f"average saving: way-memo {plain:.1f}% -> +line-buffer "
        f"{combined:.1f}% ({combined - plain:+.1f} points)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="extension_line_buffer",
    title="Extension: way memoization + line buffer (D-cache)",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "the paper's stated future work; expected to add savings "
        "on top of plain way memoization"
    ),
))

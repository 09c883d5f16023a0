"""Ablation: how much of the paper's 90 % tag cut is stack traffic?

The largest deviation of this reproduction from the paper is Figure
4's average D-cache tag reduction (78 % here vs ~90 % in the paper).
Our benchmarks are hand-written assembly with almost no stack
traffic, while the paper's compiled binaries constantly save/restore
registers sp-relative — accesses that are near-perfect MAB hits
(constant base register, tiny displacements).

This ablation injects compiler-style sp-relative accesses into the
real benchmark traces at increasing rates and re-measures the 2x8
MAB.  If the hypothesis is right, the tag reduction approaches the
paper's number as the stack share approaches the 30-50 % typical of
compiled embedded code.

Each injected stream is a workload modifier, ``dct:stack=0.2``
(seeded, so deterministic); ``stack=0`` is the plain benchmark, the
Figure-4 design point itself.
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
from repro.experiments.reporting import ExperimentResult, average
from repro.workloads import BENCHMARK_NAMES

FRACTIONS = (0.0, 0.2, 0.4)


def stack_spec(fraction: float, benchmark: str) -> RunSpec:
    """The 2x8 MAB on ``benchmark`` with ``fraction`` stack traffic."""
    return RunSpec(
        "dcache", "way-memo-2x8", f"{benchmark}:stack={fraction}"
    )


def specs() -> List[RunSpec]:
    """Every (stack fraction, benchmark) design point."""
    return [
        stack_spec(fraction, benchmark)
        for fraction in FRACTIONS
        for benchmark in BENCHMARK_NAMES
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "stack_fraction", "avg_mab_hit_rate", "avg_tags_per_access",
        "tag_reduction_pct",
    ))
    for fraction in FRACTIONS:
        points = [
            spec_result(results, stack_spec(fraction, benchmark)).counters
            for benchmark in BENCHMARK_NAMES
        ]
        avg_tags = average(c.tags_per_access for c in points)
        result.add_row(
            stack_fraction=fraction,
            avg_mab_hit_rate=average(c.mab_hit_rate for c in points),
            avg_tags_per_access=avg_tags,
            tag_reduction_pct=100.0 * (1 - avg_tags / 2.0),
        )
    first, last = result.rows[0], result.rows[-1]
    result.notes.append(
        f"tag reduction {first['tag_reduction_pct']:.1f}% (no stack) -> "
        f"{last['tag_reduction_pct']:.1f}% at "
        f"{int(100 * last['stack_fraction'])}% stack share "
        "(paper: ~90% on compiled code)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="ablation_stack_traffic",
    title=(
        "Ablation: injected stack traffic vs MAB effectiveness "
        "(D-cache, 2x8 MAB)"
    ),
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "paper reports ~90% tag reduction on compiled binaries; "
        "our stack-free kernels reach 78%"
    ),
))

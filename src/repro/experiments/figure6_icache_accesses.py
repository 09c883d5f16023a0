"""Figure 6: tag and way accesses per I-cache access.

Panwar & Rennels [4] (intra-line sequential elision only) against way
memoization with 2x8 / 2x16 / 2x32 MABs.  Expected shape: [4] alone
removes ~60% of tag accesses; the MAB removes most of the remainder
(paper: the 2x8 MAB reaches ~80% of [4]'s residual tag count, i.e. a
further ~20% cut, improving with MAB size).
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
        "benchmark", "architecture", "tags_per_access",
        "ways_per_access", "intra_line_pct", "mab_hit_rate",
        "stale_hits",
    ))
    for benchmark in BENCHMARK_NAMES:
        for arch in ARCHS:
            c = spec_result(
                results, RunSpec("icache", arch, benchmark)
            ).counters
            result.add_row(
                benchmark=benchmark,
                architecture=arch,
                tags_per_access=c.tags_per_access,
                ways_per_access=c.ways_per_access,
                intra_line_pct=100.0 * c.intra_line_hits / c.accesses,
                mab_hit_rate=c.mab_hit_rate,
                stale_hits=c.stale_hits,
            )

    panwar_tags = average(
        row["tags_per_access"] for row in result.rows
        if row["architecture"] == "panwar"
    )
    ours_tags = average(
        row["tags_per_access"] for row in result.rows
        if row["architecture"] == "way-memo-2x8"
    )
    result.notes.append(
        f"[4] average {panwar_tags:.3f} tags/access "
        f"({100 * (1 - panwar_tags / 2):.1f}% below the original 2.0); "
        f"2x8 MAB average {ours_tags:.3f} "
        f"({100 * ours_tags / panwar_tags:.1f}% of [4]; paper ~80%)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="figure6_icache_accesses",
    title="Figure 6: tag/way accesses per I-cache access",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "[4] cuts ~60% of tag accesses; our 2x8 MAB reduces the "
        "remaining tag accesses to ~80% of [4]"
    ),
))

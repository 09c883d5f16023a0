"""Figure 4: tag and way accesses per D-cache access.

Three architectures per benchmark, as in the paper's grouped bars:
the original cache, the lightweight set buffer [14], and way
memoization with the 2x8 MAB.  Expected shape: our tag accesses drop
to ~10% of the original (paper: "reduced by 90%"), ways per access
fall from just under 2 towards just over 1 (at least one way is
always read).
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
        "benchmark", "architecture", "tags_per_access",
        "ways_per_access", "mab_hit_rate", "stale_hits",
    ))
    for benchmark in BENCHMARK_NAMES:
        for arch in ARCHS:
            c = spec_result(
                results, RunSpec("dcache", arch, benchmark)
            ).counters
            result.add_row(
                benchmark=benchmark,
                architecture=arch,
                tags_per_access=c.tags_per_access,
                ways_per_access=c.ways_per_access,
                mab_hit_rate=c.mab_hit_rate,
                stale_hits=c.stale_hits,
            )

    ours_tags = average(
        row["tags_per_access"] for row in result.rows
        if row["architecture"] == "way-memo-2x8"
    )
    orig_tags = average(
        row["tags_per_access"] for row in result.rows
        if row["architecture"] == "original"
    )
    result.notes.append(
        f"average tag accesses: original {orig_tags:.3f} vs "
        f"way-memo {ours_tags:.3f} "
        f"({100 * (1 - ours_tags / orig_tags):.1f}% reduction; "
        "paper reports ~90%)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="figure4_dcache_accesses",
    title="Figure 4: tag/way accesses per D-cache access",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "tag accesses cut ~90% vs original; ways/access in (1, 2) "
        "because stores hit a single way and at least one way is "
        "always read"
    ),
))

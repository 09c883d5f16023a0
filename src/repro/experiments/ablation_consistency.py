"""Ablation: the paper's MAB consistency rules vs an eviction hook.

The paper argues (Section 3.3) that its vflag clearing rules alone
keep every valid MAB pair resident in the cache, as long as the tag
side has no more entries than the cache has ways.  Every controller
in this repository verifies each MAB hit against the actual cache
content and counts violations as ``stale_hits``; this experiment
compares the ``paper`` mode against a conservative ``evict_hook`` mode
(which invalidates matching MAB pairs whenever the cache evicts a
line) on both caches and all benchmarks.

A zero stale-hit count in ``paper`` mode on every workload supports
the paper's informal argument; the hit-rate delta quantifies what the
conservative hook costs.
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
from repro.experiments.reporting import ExperimentResult
from repro.workloads import BENCHMARK_NAMES

PAIRS = (
    ("dcache", "way-memo-2x8", "way-memo-2x8-evict"),
    ("icache", "way-memo-2x16", "way-memo-2x16-evict"),
)


def specs() -> List[RunSpec]:
    """Every design point this experiment evaluates."""
    return [
        RunSpec(cache, arch, benchmark)
        for benchmark in BENCHMARK_NAMES
        for cache, paper_arch, hook_arch in PAIRS
        for arch in (paper_arch, hook_arch)
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "benchmark", "cache", "mode", "mab_hit_rate", "stale_hits",
        "tags_per_access",
    ))
    total_stale_paper = 0
    for benchmark in BENCHMARK_NAMES:
        for cache, paper_arch, hook_arch in PAIRS:
            for mode, arch in (("paper", paper_arch),
                               ("evict_hook", hook_arch)):
                c = spec_result(
                    results, RunSpec(cache, arch, benchmark)
                ).counters
                if mode == "paper":
                    total_stale_paper += c.stale_hits
                result.add_row(
                    benchmark=benchmark,
                    cache=cache,
                    mode=mode,
                    mab_hit_rate=c.mab_hit_rate,
                    stale_hits=c.stale_hits,
                    tags_per_access=c.tags_per_access,
                )
    verdict = (
        "zero stale hits in paper mode across the suite - the paper's "
        "consistency argument holds on these workloads"
        if total_stale_paper == 0
        else f"{total_stale_paper} stale hits in paper mode - the "
        "paper's informal argument does NOT hold unconditionally"
    )
    result.notes.append(verdict)
    return result


EXPERIMENT = register(Experiment(
    name="ablation_consistency",
    title="Ablation: MAB consistency — paper rules vs eviction hook",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "the paper claims its update rules alone guarantee "
        "consistency (no stale hits)"
    ),
))

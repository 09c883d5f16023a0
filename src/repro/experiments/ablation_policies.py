"""Ablation: cache replacement policy sensitivity.

The paper's consistency argument leans on LRU in both the cache and
the MAB.  This ablation swaps the *cache* replacement policy (LRU /
pseudo-LRU / FIFO / random) under the paper-mode MAB and reports the
stale-hit count and hit rates — checking whether the guarantee is an
LRU artefact and how much the technique's benefit depends on the
policy.

Each point is a declarative ``RunSpec`` over the parametric
``way-memo`` architecture (2x8 on the D-cache, 2x16 on the I-cache —
the registry defaults) with the ``policy`` parameter overridden.
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

POLICIES = ("lru", "plru", "fifo", "random")


def policy_spec(cache: str, policy: str, benchmark: str) -> RunSpec:
    """One way-memo point with the cache replacement policy swapped."""
    return RunSpec(
        cache=cache, arch="way-memo", workload=benchmark,
        params={"policy": policy},
    )


def specs() -> List[RunSpec]:
    """Every design point this experiment evaluates."""
    return [
        policy_spec(cache_name, policy, benchmark)
        for cache_name in ("dcache", "icache")
        for policy in POLICIES
        for benchmark in BENCHMARK_NAMES
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "cache", "policy", "total_stale_hits", "avg_mab_hit_rate",
        "avg_cache_hit_rate",
    ))
    for cache_name in ("dcache", "icache"):
        for policy in POLICIES:
            points = [
                spec_result(
                    results, policy_spec(cache_name, policy, benchmark)
                ).counters
                for benchmark in BENCHMARK_NAMES
            ]
            result.add_row(
                cache=cache_name,
                policy=policy,
                total_stale_hits=sum(c.stale_hits for c in points),
                avg_mab_hit_rate=average(
                    c.mab_hit_rate for c in points
                ),
                avg_cache_hit_rate=average(
                    c.cache_hit_rate for c in points
                ),
            )
    return result


EXPERIMENT = register(Experiment(
    name="ablation_policies",
    title="Ablation: replacement policy vs MAB consistency",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "the paper's argument assumes LRU; non-LRU caches may "
        "evict lines the MAB still memoizes"
    ),
))

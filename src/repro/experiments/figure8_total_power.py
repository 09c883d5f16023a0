"""Figure 8: total I-cache + D-cache power.

Our configuration (2x16 MAB on the I-cache, 2x8 on the D-cache)
against the strongest no-penalty prior art ("original + approach
[4]"): the original D-cache plus Panwar's intra-line optimisation on
the I-cache.  Expected shape: ~30% average saving, best case ~40%
(mpeg2enc in the paper).
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

#: (cache, architecture) pairs of the baseline and our configuration.
POINTS = (
    ("icache", "panwar"),
    ("dcache", "original"),
    ("icache", "way-memo-2x16"),
    ("dcache", "way-memo-2x8"),
)


def specs() -> List[RunSpec]:
    """Every design point this experiment evaluates."""
    return [
        RunSpec(cache_name, arch, benchmark)
        for benchmark in BENCHMARK_NAMES
        for cache_name, arch in POINTS
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    def power_mw(cache_name: str, arch: str, benchmark: str) -> float:
        return spec_result(
            results, RunSpec(cache_name, arch, benchmark)
        ).power.total_mw

    result = EXPERIMENT.new_result(columns=(
        "benchmark", "architecture", "icache_mw", "dcache_mw",
        "total_mw", "saving_pct",
    ))
    savings_list = []
    for benchmark in BENCHMARK_NAMES:
        base_i = power_mw("icache", "panwar", benchmark)
        base_d = power_mw("dcache", "original", benchmark)
        ours_i = power_mw("icache", "way-memo-2x16", benchmark)
        ours_d = power_mw("dcache", "way-memo-2x8", benchmark)
        baseline_total = base_i + base_d
        ours_total = ours_i + ours_d
        saving = 100.0 * savings(baseline_total, ours_total)
        savings_list.append((benchmark, saving))
        result.add_row(
            benchmark=benchmark,
            architecture="original+[4]",
            icache_mw=base_i,
            dcache_mw=base_d,
            total_mw=baseline_total,
            saving_pct=0.0,
        )
        result.add_row(
            benchmark=benchmark,
            architecture="way-memo (2x16 I, 2x8 D)",
            icache_mw=ours_i,
            dcache_mw=ours_d,
            total_mw=ours_total,
            saving_pct=saving,
        )
    avg = average(s for _, s in savings_list)
    best_bench, best = max(savings_list, key=lambda item: item[1])
    result.notes.append(
        f"average saving {avg:.1f}% (paper ~30%); best {best:.1f}% "
        f"on {best_bench} (paper: ~40% on mpeg2enc)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="figure8_total_power",
    title="Figure 8: total cache power (mW), I + D",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "average saving ~30%, maximum ~40% (mpeg2enc), vs "
        "original D-cache + [4] I-cache"
    ),
))

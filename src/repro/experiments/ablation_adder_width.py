"""Ablation: narrow-adder width vs displacement coverage.

The MAB can only serve accesses whose displacement's upper bits are
all-zero or all-one (Section 3.1); the paper chose a 14-bit adder
(offset+index bits of the FR-V cache) and measured the residual
bypass rate at "less than 1%".  This ablation measures, per
benchmark, the fraction of data accesses whose displacement exceeds
each candidate width — i.e. the MAB bypass rate a ``w``-bit adder
would suffer — directly testing the small-displacement claim the
whole technique rests on.

The adder is as wide as the cache's offset + index bits, so a
``w``-bit adder is the MAB of a 2-way, 32-byte-line D-cache of
``2 * 2**w`` bytes, and its bypass rate is that design point's
``mab_bypasses / accesses`` (the 14-bit point is the FR-V cache).
"""

from __future__ import annotations

from typing import List

from repro.api import RunSpec
from repro.cache.config import FRV_DCACHE
from repro.experiments.ablation_mab_size import mab_spec
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    register,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult
from repro.workloads import BENCHMARK_NAMES

WIDTHS = (8, 10, 12, 14, 16)


def adder_spec(width: int, benchmark: str) -> RunSpec:
    """The 2x8 MAB on the FR-V-shaped D-cache whose ways each span
    ``2**width`` bytes (offset + index bits = ``width``)."""
    return mab_spec(
        "dcache", 2, 8, benchmark,
        size_bytes=FRV_DCACHE.ways * 2 ** width,
    )


def specs() -> List[RunSpec]:
    """Every (benchmark, adder width) design point."""
    return [
        adder_spec(width, benchmark)
        for benchmark in BENCHMARK_NAMES
        for width in WIDTHS
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(
        columns=("benchmark",) + tuple(f"w{w}_pct" for w in WIDTHS)
    )
    worst_w14 = 0.0
    for benchmark in BENCHMARK_NAMES:
        row = {"benchmark": benchmark}
        for width in WIDTHS:
            c = spec_result(results, adder_spec(width, benchmark)).counters
            rate = 100.0 * (c.mab_bypasses / c.accesses)
            row[f"w{width}_pct"] = rate
            if width == 14:
                worst_w14 = max(worst_w14, rate)
        result.add_row(**row)
    result.notes.append(
        f"worst-case 14-bit bypass rate {worst_w14:.3f}% "
        "(paper claims <1%)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="ablation_adder_width",
    title="Ablation: MAB bypass rate vs narrow-adder width",
    specs=specs,
    tabulate=tabulate,
    paper_reference=(
        "paper: <1% of displacements exceed the 14-bit adder "
        "(|disp| >= 2^13)"
    ),
))

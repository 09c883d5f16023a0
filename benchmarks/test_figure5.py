"""Benchmark regenerating Figure 5 (D-cache power breakdown)."""

from repro.experiments import figure5_dcache_power, render
from repro.experiments.reporting import average


def test_figure5_dcache_power(benchmark):
    result = benchmark.pedantic(
        figure5_dcache_power.EXPERIMENT.run, rounds=1, iterations=1
    )
    print()
    print(render(result))
    savings = [
        r["saving_pct"] for r in result.rows
        if r["architecture"] == "way-memo-2x8"
    ]
    # Paper: ~35% average saving; our kernels land in the same band.
    assert average(savings) > 20.0

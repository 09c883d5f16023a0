"""Benchmark regenerating Figure 7 (I-cache power)."""

from repro.experiments import figure7_icache_power, render
from repro.experiments.reporting import average


def test_figure7_icache_power(benchmark):
    result = benchmark.pedantic(
        figure7_icache_power.EXPERIMENT.run, rounds=1, iterations=1
    )
    print()
    print(render(result))
    savings = [
        r["saving_vs_panwar_pct"] for r in result.rows
        if r["architecture"] == "way-memo-2x16"
    ]
    # Paper: ~25% average saving for the chosen 2x16 configuration.
    assert 15.0 < average(savings) < 35.0

"""Benchmark regenerating Figure 4 (D-cache tag/way accesses)."""

from repro.experiments import figure4_dcache_accesses, render
from repro.experiments.reporting import average


def test_figure4_dcache_accesses(benchmark):
    result = benchmark.pedantic(
        figure4_dcache_accesses.EXPERIMENT.run, rounds=1, iterations=1
    )
    print()
    print(render(result))
    ours = average(
        r["tags_per_access"] for r in result.rows
        if r["architecture"] == "way-memo-2x8"
    )
    orig = average(
        r["tags_per_access"] for r in result.rows
        if r["architecture"] == "original"
    )
    # Paper shape: order-of-magnitude class tag reduction vs original.
    assert ours < 0.3 * orig

"""Benchmark regenerating Figure 8 (total I+D cache power)."""

from repro.experiments import figure8_total_power, render
from repro.experiments.reporting import average, bar_chart


def test_figure8_total_power(benchmark):
    result = benchmark.pedantic(
        figure8_total_power.EXPERIMENT.run, rounds=1, iterations=1
    )
    print()
    print(render(result))
    ours = [r for r in result.rows if r["architecture"].startswith("way")]
    print()
    print(bar_chart(
        [r["benchmark"] for r in ours],
        [r["saving_pct"] for r in ours],
        unit="%",
    ))
    savings = [r["saving_pct"] for r in ours]
    # Paper: ~30% average, ~40% max on mpeg2enc.
    assert average(savings) > 20.0
    best = max(ours, key=lambda r: r["saving_pct"])
    assert best["benchmark"] == "mpeg2enc"

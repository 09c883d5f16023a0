"""Experiment shape tests: every table/figure must reproduce the
paper's qualitative result (who wins, by roughly what factor)."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.reporting import (
    ExperimentResult,
    average,
    bar_chart,
    render,
)
from repro.workloads import BENCHMARK_NAMES


@pytest.fixture(scope="module")
def fig4():
    return run_experiment("figure4_dcache_accesses")


@pytest.fixture(scope="module")
def fig5():
    return run_experiment("figure5_dcache_power")


@pytest.fixture(scope="module")
def fig6():
    return run_experiment("figure6_icache_accesses")


@pytest.fixture(scope="module")
def fig7():
    return run_experiment("figure7_icache_power")


@pytest.fixture(scope="module")
def fig8():
    return run_experiment("figure8_total_power")


# ----------------------------------------------------------------------
# Tables 1-3 (shapes are asserted against the paper data elsewhere;
# here we check experiment plumbing and the headline notes).
# ----------------------------------------------------------------------

def test_table_experiments_have_full_grids():
    for name in ("table1_area", "table2_delay", "table3_power"):
        result = run_experiment(name)
        assert len(result.rows) == 8
        assert result.notes or result.paper_reference


def test_table1_overhead_ordering():
    result = run_experiment("table1_area")
    overheads = result.column("overhead_pct")
    assert overheads == sorted(overheads) or all(
        a <= b for a, b in zip(overheads[:4], overheads[4:])
    )


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------

def test_fig4_original_always_two_tags(fig4):
    for row in fig4.rows:
        if row["architecture"] == "original":
            assert row["tags_per_access"] == pytest.approx(2.0)
            assert 1.0 < row["ways_per_access"] <= 2.1


def test_fig4_way_memo_beats_original_everywhere(fig4):
    for benchmark in BENCHMARK_NAMES:
        ours = fig4.row_for(
            benchmark=benchmark, architecture="way-memo-2x8"
        )
        orig = fig4.row_for(benchmark=benchmark, architecture="original")
        assert ours["tags_per_access"] < orig["tags_per_access"]
        assert ours["ways_per_access"] < orig["ways_per_access"]
        assert ours["ways_per_access"] >= 1.0  # at least one way


def test_fig4_substantial_average_tag_reduction(fig4):
    ours = average(
        r["tags_per_access"] for r in fig4.rows
        if r["architecture"] == "way-memo-2x8"
    )
    # Paper: 90% cut.  Our hand-written kernels (no stack traffic)
    # reach >75%; the shape — an order-of-magnitude class win — holds.
    assert ours < 0.5


def test_fig4_no_stale_hits(fig4):
    assert all(row["stale_hits"] == 0 for row in fig4.rows)


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------

def test_fig5_way_memo_saves_power_overall(fig5):
    savings = [
        r["saving_pct"] for r in fig5.rows
        if r["architecture"] == "way-memo-2x8"
    ]
    assert average(savings) > 20.0  # paper: ~35%
    assert max(savings) > 35.0


def test_fig5_tag_power_nearly_eliminated(fig5):
    for benchmark in BENCHMARK_NAMES:
        ours = fig5.row_for(
            benchmark=benchmark, architecture="way-memo-2x8"
        )
        orig = fig5.row_for(benchmark=benchmark, architecture="original")
        assert ours["tag_mw"] < 0.6 * orig["tag_mw"]


def test_fig5_absolute_scale_matches_paper_axis(fig5):
    """The paper's Figure 5 y-axis tops out around 40 mW."""
    totals = [r["total_mw"] for r in fig5.rows]
    assert 3.0 < min(totals)
    assert max(totals) < 45.0


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------

def test_fig6_panwar_cuts_majority_of_tags(fig6):
    panwar = average(
        r["tags_per_access"] for r in fig6.rows
        if r["architecture"] == "panwar"
    )
    # Paper: ~60% below the original 2.0 tags/access.
    assert 0.4 < panwar < 1.1


def test_fig6_mab_improves_on_panwar_everywhere(fig6):
    for benchmark in BENCHMARK_NAMES:
        panwar = fig6.row_for(benchmark=benchmark, architecture="panwar")
        for arch in ("way-memo-2x8", "way-memo-2x16", "way-memo-2x32"):
            ours = fig6.row_for(benchmark=benchmark, architecture=arch)
            assert ours["tags_per_access"] < panwar["tags_per_access"]
            assert ours["intra_line_pct"] == pytest.approx(
                panwar["intra_line_pct"]
            )


def test_fig6_hit_rate_monotone_in_mab_size(fig6):
    for benchmark in BENCHMARK_NAMES:
        rates = [
            fig6.row_for(benchmark=benchmark,
                         architecture=f"way-memo-2x{ns}")["mab_hit_rate"]
            for ns in (8, 16, 32)
        ]
        assert rates[0] <= rates[1] + 1e-9
        assert rates[1] <= rates[2] + 1e-9


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------

def test_fig7_2x16_saves_vs_panwar(fig7):
    savings = [
        r["saving_vs_panwar_pct"] for r in fig7.rows
        if r["architecture"] == "way-memo-2x16"
    ]
    assert 15.0 < average(savings) < 35.0  # paper: ~25%


def test_fig7_2x32_pays_for_its_size(fig7):
    """The paper rejected 2x32 partly on power: its MAB costs more."""
    for benchmark in BENCHMARK_NAMES:
        p16 = fig7.row_for(
            benchmark=benchmark, architecture="way-memo-2x16"
        )
        p32 = fig7.row_for(
            benchmark=benchmark, architecture="way-memo-2x32"
        )
        assert p32["aux_mw"] > p16["aux_mw"]


def test_fig7_absolute_scale_matches_paper_axis(fig7):
    """Figure 7's y-axis runs to ~100 mW with bars in the 30-100 band."""
    totals = [r["total_mw"] for r in fig7.rows]
    assert 25.0 < min(totals)
    assert max(totals) < 100.0


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------

def test_fig8_headline_savings(fig8):
    ours = [r for r in fig8.rows if r["architecture"].startswith("way")]
    savings = [r["saving_pct"] for r in ours]
    assert 20.0 < average(savings) < 40.0   # paper: ~30%
    assert max(savings) > 30.0              # paper: max ~40%


def test_fig8_best_benchmark_is_mpeg2enc(fig8):
    ours = [r for r in fig8.rows if r["architecture"].startswith("way")]
    best = max(ours, key=lambda r: r["saving_pct"])
    assert best["benchmark"] == "mpeg2enc"  # same winner as the paper


def test_fig8_totals_are_component_sums(fig8):
    for row in fig8.rows:
        assert row["total_mw"] == pytest.approx(
            row["icache_mw"] + row["dcache_mw"]
        )


# ----------------------------------------------------------------------
# ablations (cheap ones only; the size sweep runs in benchmarks/)
# ----------------------------------------------------------------------

def test_consistency_ablation_supports_paper_claim():
    result = run_experiment("ablation_consistency")
    paper_rows = [r for r in result.rows if r["mode"] == "paper"]
    assert all(r["stale_hits"] == 0 for r in paper_rows)
    # The eviction hook may only reduce the hit rate, never raise it.
    for row in paper_rows:
        hook = result.row_for(
            benchmark=row["benchmark"], cache=row["cache"],
            mode="evict_hook",
        )
        assert hook["mab_hit_rate"] <= row["mab_hit_rate"] + 1e-9


def test_adder_width_ablation_monotone():
    result = run_experiment("ablation_adder_width")
    for row in result.rows:
        rates = [row[f"w{w}_pct"] for w in (8, 10, 12, 14, 16)]
        assert rates == sorted(rates, reverse=True)
        assert row["w14_pct"] < 1.0  # the paper's <1% claim


def test_adder_width_points_bypass_exactly_the_wide_displacements():
    """Each width's design point is a cache whose offset + index bits
    equal the width, so its MAB bypasses exactly the displacements a
    narrow adder of that width cannot serve.  The suite's
    displacements are all small (every rate reads 0), so this drives
    wide ones through the same specs' controllers."""
    import numpy as np

    from repro.api import get_architecture
    from repro.core.address import SignClass, displacement_sign_class
    from repro.experiments.ablation_adder_width import WIDTHS, adder_spec
    from repro.sim.trace import DataTrace

    rng = np.random.default_rng(3)
    n = 3_000
    disp = (rng.integers(-(1 << 17), 1 << 17, size=n) * 4).astype(np.int32)
    trace = DataTrace(
        base=(0x40000 + rng.integers(0, 4096, size=n) * 4).astype(
            np.uint32
        ),
        disp=disp,
        store=rng.random(n) < 0.3,
    )
    way_memo = get_architecture("dcache", "way-memo")
    for width in WIDTHS:
        counters = way_memo.build(
            adder_spec(width, "dct").param_dict
        ).process(trace)
        wide = sum(
            displacement_sign_class(int(d), width) is SignClass.OTHER
            for d in disp.tolist()
        )
        assert 0 < wide < n
        assert counters.mab_bypasses == wide, width


# ----------------------------------------------------------------------
# reporting utilities
# ----------------------------------------------------------------------

def test_render_includes_headers_and_notes():
    result = ExperimentResult(
        name="t", title="Demo", columns=("a", "b"),
        paper_reference="ref",
    )
    result.add_row(a=1, b=2.5)
    result.notes.append("hello")
    text = render(result)
    assert "Demo" in text and "ref" in text
    assert "2.500" in text and "hello" in text


def test_row_for_raises_on_missing():
    result = ExperimentResult(name="t", title="T", columns=("a",))
    with pytest.raises(KeyError):
        result.row_for(a=1)


def test_bar_chart():
    chart = bar_chart(["x", "yy"], [1.0, 2.0], width=10, unit="mW")
    lines = chart.splitlines()
    assert lines[0].startswith("x ")
    assert lines[1].count("#") == 10


# ----------------------------------------------------------------------
# associativity extension (the Nt <= ways consistency condition)
# ----------------------------------------------------------------------

def test_associativity_condition_is_sharp():
    """The paper's Section 3.3 precondition, tested empirically: stale
    MAB hits appear exactly when tag entries exceed the way count."""
    result = run_experiment("extension_associativity")
    for row in result.rows:
        if row["condition_met"]:
            assert row["stale_hits"] == 0, row
    violated = [r["stale_hits"] for r in result.rows
                if not r["condition_met"]]
    assert sum(violated) > 0, (
        "expected at least one stale hit when Nt > ways"
    )


def test_associativity_way_savings_grow():
    result = run_experiment("extension_associativity")
    reds = [
        r["way_reduction_pct"] for r in result.rows
        if r["mab"] == "2x8" and r["ways"] >= 2
    ]
    assert reds == sorted(reds)


# ----------------------------------------------------------------------
# model-sensitivity ablations
# ----------------------------------------------------------------------

def test_fetch_width_ablation_shapes():
    result = run_experiment("ablation_fetch_width")
    # Wider packets -> fewer accesses and lower intra-line share.
    rates = result.column("accesses_per_kinstr")
    intra = result.column("intra_line_pct")
    assert rates == sorted(rates, reverse=True)
    assert intra == sorted(intra, reverse=True)
    # The MAB wins big over [4] at every width.
    assert all(
        row["memo_vs_panwar_pct"] > 80.0 for row in result.rows
    )


def test_energy_model_ablation_robustness():
    result = run_experiment("ablation_energy_model")
    savings_col = result.column("avg_total_saving_pct")
    # Monotone in the tag ratio, and never collapses below 15%.
    assert savings_col == sorted(savings_col)
    assert min(savings_col) > 15.0
    assert max(savings_col) < 50.0

"""Byte-identity of the registry-driven experiments vs golden output.

``tests/golden/*.txt`` snapshots the rendered tables of every report
experiment: the figures, tables and ablations as produced by the
pre-``repro.api`` code (four separate registries, serial per-module
plumbing), and the analytic tables and stream-modifying ablations as
produced by their private per-table replay loops.  The
registered experiments — now declared ``specs()`` + pure
``tabulate()`` records — must reproduce those bytes exactly: the
registry layers are re-plumbing, not re-modelling.

If a deliberate model change shifts a number, regenerate the
snapshots (render ``run_experiment(name)`` + trailing newline) in the
same commit and say so in the commit message.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.reporting import render

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_EXPERIMENTS = sorted(
    path.stem for path in GOLDEN_DIR.glob("*.txt")
)


def test_golden_snapshots_exist():
    """Every report experiment is pinned, the analytic tables too."""
    assert GOLDEN_EXPERIMENTS == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_experiment_table_matches_pre_refactor_bytes(name):
    rendered = render(run_experiment(name)) + "\n"
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert rendered == golden, (
        f"{name} drifted from its pre-refactor snapshot"
    )


def test_golden_bytes_survive_live_telemetry(monkeypatch, tmp_path):
    """Telemetry is a pure observer: a golden experiment rendered with
    the metrics registry, span capture AND a trace file all live must
    still match its snapshot byte for byte."""
    from repro.telemetry.metrics import TELEMETRY_ENV
    from repro.telemetry.tracing import TRACE_FILE_ENV, capture_spans

    name = GOLDEN_EXPERIMENTS[0]
    monkeypatch.setenv(TELEMETRY_ENV, "1")
    monkeypatch.setenv(TRACE_FILE_ENV, str(tmp_path / "trace.jsonl"))
    with capture_spans():
        rendered = render(run_experiment(name)) + "\n"
    assert rendered == (GOLDEN_DIR / f"{name}.txt").read_text(), (
        f"{name} changed bytes under live telemetry"
    )

"""CLI tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1_area" in out
    assert "mpeg2enc" in out


def test_list_exits_quietly_when_the_reader_closes_the_pipe():
    """``repro list | head -1``: once the reader has gone, the CLI
    exits 1 without a ``BrokenPipeError`` traceback.

    The pipe holds one page, less than the listing, so the child is
    still writing when it closes.
    """
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("cannot shrink a pipe on this platform")
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "list"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    with open(read_fd, "rb", buffering=0) as reader:
        assert reader.readline() == b"experiments:\n"
    stderr = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1, stderr
    assert "Traceback" not in stderr, stderr
    assert "Exception ignored" not in stderr, stderr


def test_list_shows_architectures_and_sweeps(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "architectures:" in out
    assert "dcache/way-memo-2x8" in out
    assert "icache/way-memo-2x16" in out
    assert "tag_entries=2" in out          # parameter defaults shown
    assert "sweeps:" in out
    assert "mab-size" in out and "baselines" in out


def test_run_single_experiment(capsys):
    assert main(["run", "table2_delay"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "delay_ns" in out


def test_run_multiple_experiments(capsys):
    assert main(["run", "table1_area", "table3_power"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 3" in out


def test_run_evaluates_every_experiment_in_one_batch(
    monkeypatch, capsys
):
    """``repro run A B`` evaluates both experiments' design points in
    one deduplicated ``evaluate_many`` batch and prints exactly their
    two tables."""
    from repro.experiments import registry, render, run_experiment

    names = ["figure4_dcache_accesses", "figure5_dcache_power"]
    expected = "\n\n".join(render(run_experiment(n)) for n in names)
    batches = []
    evaluate_many = registry.evaluate_many

    def counting(specs, *args, **kwargs):
        batches.append(len(specs))
        return evaluate_many(specs, *args, **kwargs)

    monkeypatch.setattr(registry, "evaluate_many", counting)
    assert main(["run", *names, "--workers", "1"]) == 0
    assert capsys.readouterr().out == expected + "\n"
    unique = {
        spec.key()
        for name in names
        for spec in registry.get_experiment(name).specs()
    }
    assert batches == [len(unique)]


def test_run_unknown_experiment(capsys):
    assert main(["run", "figure99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_json_is_schema_versioned_and_machine_readable(capsys):
    import json

    from repro.api import RESULT_SCHEMA_VERSION

    assert main(["run", "table2_delay", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION
    (result,) = payload["results"]
    assert result["name"] == "table2_delay"
    assert result["rows"] and result["columns"]
    assert result["rendered"].startswith("== Table 2")


def test_eval_single_spec(capsys):
    import json

    spec = {"cache": "dcache", "arch": "way-memo-2x8",
            "workload": "dct"}
    assert main(["eval", json.dumps(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["arch"] == "way-memo-2x8"
    assert payload["counters"]["accesses"] > 0
    assert payload["power_mw"]["total"] > 0


def test_eval_batch_from_file(tmp_path, capsys):
    import json

    specs = [
        {"cache": "icache", "arch": "panwar", "workload": "dct"},
        {"cache": "dcache", "arch": "way-memo", "workload": "dct",
         "params": {"tag_entries": 1, "index_entries": 4}},
    ]
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(specs))
    assert main(["eval", f"@{path}", "--workers", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["spec"]["arch"] for p in payload] == ["panwar", "way-memo"]


def test_eval_rejects_garbage(capsys):
    assert main(["eval", "{not json"]) == 2
    assert "invalid spec JSON" in capsys.readouterr().err
    assert main(["eval", '{"cache": "dcache"}']) == 2
    assert "invalid spec" in capsys.readouterr().err
    assert main(
        ["eval", '{"cache": "dcache", "arch": "nope", "workload": "dct"}']
    ) == 2
    assert "invalid spec" in capsys.readouterr().err
    assert main(["eval", "[1]"]) == 2
    assert "array of" in capsys.readouterr().err
    assert main(["eval", '"just a string"']) == 2
    assert "array of" in capsys.readouterr().err
    assert main(["eval", "@/nonexistent/specs.json"]) == 2
    assert "cannot read spec file" in capsys.readouterr().err


def test_bench_runs_and_verifies(capsys):
    assert main(["bench", "whetstone"]) == 0
    out = capsys.readouterr().out
    assert "golden-model check: OK" in out
    assert "instructions" in out


def test_bench_unknown(capsys):
    assert main(["bench", "linpack"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_disasm(capsys):
    assert main(["disasm", "dct"]) == 0
    out = capsys.readouterr().out
    assert "main:" in out
    assert "halt" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_profile_command(capsys):
    assert main(["profile", "fft"]) == 0
    out = capsys.readouterr().out
    assert "profile of fft" in out
    assert "suggested D-cache MAB" in out


def test_profile_unknown(capsys):
    assert main(["profile", "nope"]) == 2


def test_trace_export_command(tmp_path, capsys):
    path = str(tmp_path / "fft.npz")
    assert main(["trace", "fft", "-o", path]) == 0
    from repro.sim import load_traces
    trace, fetch = load_traces(path)
    assert trace.program_name == "fft"
    assert fetch is not None


def test_report_subset():
    # A single fast experiment keeps this test cheap; `repro report`
    # without arguments runs the full set.
    from repro.experiments import report
    md = report.generate(["table2_delay"])
    assert "# Reproduction report" in md
    assert "## Table 2" in md
    assert "| tag_entries |" in md


def test_report_markdown_table_well_formed():
    from repro.experiments import report
    md = report.generate(["table3_power"])
    lines = [l for l in md.splitlines() if l.startswith("|")]
    widths = {line.count("|") for line in lines}
    assert len(widths) == 1  # header, rule and rows all align


def test_report_cli_accepts_experiment_subset(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["report", "table2_delay", "-o", str(out)]) == 0
    text = out.read_text()
    assert "# Reproduction report" in text
    assert "## Table 2" in text
    assert "Figure 4" not in text
    assert main(["report", "figure99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_store_gc_cli_accepts_lru_flags(tmp_path, monkeypatch, capsys):
    from repro.store import STORE_ENV, reset_default_stores

    monkeypatch.setenv(STORE_ENV, str(tmp_path / "gc.sqlite"))
    reset_default_stores()
    try:
        assert main(["store", "gc", "--max-rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "least-recently-used" in out
        assert main(["store", "gc", "--max-age", "30"]) == 0
    finally:
        reset_default_stores()

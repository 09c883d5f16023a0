"""The README's performance figures are the committed report's.

Every number the README's Performance section quotes from
``BENCH_report.json`` is listed here with the key it comes from.  The
key, rounded to the precision the README quotes, must print the
quoted digits, so a regenerated report with a stale README, or a
number copied from another run, fails here.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Report microseconds quoted as milliseconds.
MS = 1e-3

#: README text with ``{}`` where each number stands, and each number's
#: (report key, factor to the quoted unit).
QUOTES = [
    ("| ISS execution (40k insn loop) | {} ms | {} ms | **{}×** |",
     [("seed_baseline_us.iss_execution", MS),
      ("metrics_us.iss_execution", MS),
      ("speedup.iss_execution", 1)]),
    ("| D-cache controller (20k accesses) | {} ms | {} ms | **{}×** |",
     [("seed_baseline_us.dcache_controller", MS),
      ("metrics_us.dcache_controller", MS),
      ("speedup.dcache_controller", 1)]),
    ("| I-cache controller (~13k fetches) | {} ms | {} ms | **{}×** |",
     [("seed_baseline_us.icache_controller", MS),
      ("metrics_us.icache_controller", MS),
      ("speedup.icache_controller", 1)]),
    ("set-buffer {}×, way-prediction {}×, two-phase {}×, MA-links {}×, "
     "Panwar {}×, filter cache {}×.",
     [("baseline_speedup_vs_reference.set_buffer_dcache", 1),
      ("baseline_speedup_vs_reference.way_prediction_dcache", 1),
      ("baseline_speedup_vs_reference.two_phase_dcache", 1),
      ("baseline_speedup_vs_reference.ma_links_icache", 1),
      ("baseline_speedup_vs_reference.panwar_icache", 1),
      ("baseline_speedup_vs_reference.filter_cache_dcache", 1)]),
    ("two runs back — {}× (D) / {}× (I) faster than a per-access",
     [("sweep_2way.dcache.speedup", 1),
      ("sweep_2way.icache.speedup", 1)]),
    ("and {}× on the D stream with every access repeated",
     [("sweep_2way.dcache_runs.speedup", 1)]),
    ("the shared sweep's hit bits ({}× vs its reference loop)",
     [("replay.stateful_speedup.set_buffer_dcache", 1)]),
    ("previous same-key consult by `repeat_pairs` ({}× vs its reference "
     "loop)",
     [("replay.stateful_speedup.ma_links_icache", 1)]),
    ("({}× D / {}× I vs the reference loop alone, {}× D / {}× I for the "
     "paper's 12 geometries in one group)",
     [("replay.stateful_speedup.way_memo_dcache", 1),
      ("replay.stateful_speedup.way_memo_icache", 1),
      ("replay.grid_speedup.dcache", 1),
      ("replay.grid_speedup.icache", 1)]),
    ("every geometry and replacement policy ({}× vs its reference loop)",
     [("replay.stateful_speedup.filter_cache_dcache", 1)]),
    ("runs over the buffer misses ({}× vs its reference loop)",
     [("replay.stateful_speedup.line_buffer_dcache", 1)]),
    ("back to back ({}× on the D side, {}× on the I side",
     [("replay.sides.dcache.speedup", 1),
      ("replay.sides.icache.speedup", 1)]),
    ("it now takes {} minor faults ({} ms, peak RSS {} MiB)",
     [("worker_claim.minor_faults", 1),
      ("worker_claim.wall_ms", 1),
      ("worker_claim.peak_rss_mib", 1)]),
]


def _pattern(template: str) -> "re.Pattern[str]":
    """``template`` as a regex: a space matches any run of whitespace
    and each ``{}`` captures a decimal number."""
    regex = re.escape(template).replace(r"\{\}", r"(\d+(?:\.\d+)?)")
    return re.compile(re.sub(r"(?:\\ )+", r"\\s+", regex))


def _report_value(report: dict, key: str) -> float:
    value = report
    for part in key.split("."):
        value = value[part]
    return value


@pytest.mark.parametrize(
    "template,keys", QUOTES, ids=[keys[0][0] for _, keys in QUOTES]
)
def test_readme_quotes_the_committed_report(template, keys):
    readme = (ROOT / "README.md").read_text()
    report = json.loads((ROOT / "BENCH_report.json").read_text())
    matches = _pattern(template).findall(readme)
    assert len(matches) == 1, f"expected one README match for {template!r}"
    quoted = matches[0] if isinstance(matches[0], tuple) else (matches[0],)
    for text, (key, factor) in zip(quoted, keys):
        decimals = len(text.partition(".")[2])
        value = _report_value(report, key) * factor
        assert f"{value:.{decimals}f}" == text, (
            f"README quotes {text} for {key}; the report holds {value}"
        )

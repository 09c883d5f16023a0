"""Every shipped example runs to completion.

Each example is a user-facing script; running it in a fresh
interpreter catches imports of moved or deleted modules and any API
drift the library's own tests would not see.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # trace_interop.py writes its export under the temp directory.
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, env=env, cwd=str(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()

"""On-disk workload trace cache tests.

A second process (simulated here by clearing the in-process
``lru_cache`` and forbidding ISS execution) must load traces from the
versioned ``.npz`` archive instead of re-running the ISS, and the
cached traces must be bit-identical to freshly executed ones.  The
cache must also be safely disableable and robust to garbage archives.
"""

from unittest import mock

import numpy as np
import pytest

import repro.workloads.suite as suite
from repro.workloads import load_workload


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(suite.TRACE_CACHE_ENV, str(tmp_path))
    suite.load_workload.cache_clear()
    yield tmp_path
    suite.load_workload.cache_clear()


def test_cold_run_populates_cache(cache_dir):
    load_workload("dct")
    archives = list(cache_dir.glob("dct-*.npz"))
    assert len(archives) == 1
    name = archives[0].name
    assert "-p8-" in name and name.endswith(
        f"-v{suite.FORMAT_VERSION}.npz"
    )


def test_second_process_skips_the_iss(cache_dir):
    first = load_workload("dct")
    suite.load_workload.cache_clear()  # simulate a new process
    with mock.patch.object(
        suite, "_execute_workload",
        side_effect=AssertionError("ISS must not run on a cache hit"),
    ):
        second = load_workload("dct")
    assert second.cycles == first.cycles
    assert second.trace.instructions == first.trace.instructions
    assert second.trace.mix == first.trace.mix
    for attr in ("base", "disp", "store"):
        assert np.array_equal(
            getattr(second.trace.data, attr),
            getattr(first.trace.data, attr),
        ), attr
    for attr in ("addr", "kind", "base", "disp"):
        assert np.array_equal(
            getattr(second.fetch, attr), getattr(first.fetch, attr)
        ), attr


def test_packet_spec_resolves_from_the_one_archive(cache_dir):
    """A ``:packet=16`` spec re-derives its fetch stream from the
    cached flow trace: no ISS run, no second archive."""
    from repro.api import RunSpec, evaluate
    from repro.replay.engine import clear_columns_cache
    from repro.sim import fetch_stream

    workload = load_workload("dct")
    suite.load_workload.cache_clear()  # simulate a new process
    clear_columns_cache()
    with mock.patch.object(
        suite, "_execute_workload",
        side_effect=AssertionError("ISS must not run on a cache hit"),
    ):
        result = evaluate(
            RunSpec("icache", "panwar", "dct:packet=16"),
            use_cache=False,
        )
    assert result.counters.accesses == len(
        fetch_stream(workload.trace.flow, 16)
    )
    assert result.cycles == workload.cycles
    assert len(list(cache_dir.glob("dct-*.npz"))) == 1


def test_program_lookups_refuse_stream_modifiers(cache_dir):
    with pytest.raises(ValueError, match="without packet=/stack="):
        load_workload("dct:packet=16")
    with pytest.raises(ValueError, match="without packet=/stack="):
        suite.get_benchmark("dct:stack=0.2")


def test_corrupt_archive_is_regenerated(cache_dir):
    load_workload("dct")
    archive = next(iter(cache_dir.glob("dct-*.npz")))
    archive.write_bytes(b"this is not a zip archive")
    suite.load_workload.cache_clear()
    workload = load_workload("dct")  # must re-run, not crash
    assert workload.cycles > 0


def test_cache_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv(suite.TRACE_CACHE_ENV, "off")
    suite.load_workload.cache_clear()
    try:
        assert suite.trace_cache_dir() is None
        workload = load_workload("dct")
        assert workload.cycles > 0
    finally:
        suite.load_workload.cache_clear()


def test_default_cache_dir_honours_xdg(monkeypatch):
    monkeypatch.delenv(suite.TRACE_CACHE_ENV, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", "/some/cache")
    assert str(suite.trace_cache_dir()) == "/some/cache/repro-traces"

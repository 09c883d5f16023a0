"""On-disk workload trace cache tests.

A second process (simulated here by clearing the in-process
``lru_cache`` and forbidding ISS execution) must load traces from the
``.npz`` archive its code version wrote instead of re-running the ISS,
without building the program, and the cached traces must be
bit-identical to freshly executed ones.  An archive written by other
code is a miss.  The cache must also be safely disableable and robust
to garbage archives.
"""

from unittest import mock

import numpy as np
import pytest

import repro.workloads.suite as suite
from repro.store import code_fingerprint
from repro.workloads import load_workload


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(suite.TRACE_CACHE_ENV, str(tmp_path))
    suite.load_workload.cache_clear()
    yield tmp_path
    suite.load_workload.cache_clear()


def test_cold_run_populates_cache(cache_dir):
    load_workload("dct")
    archives = [path.name for path in cache_dir.glob("dct-*.npz")]
    assert archives == [f"dct-{code_fingerprint()}.npz"]


def test_archive_of_another_code_version_is_a_miss(cache_dir):
    """An archive another code version wrote (its fingerprint in the
    name) is never read: the ISS runs once and writes this version's
    own archive beside it."""
    with mock.patch.object(
        suite, "code_fingerprint", return_value="0123456789abcdef"
    ):
        load_workload("dct")
    suite.load_workload.cache_clear()  # simulate a new process
    with mock.patch.object(
        suite, "_execute_workload", wraps=suite._execute_workload
    ) as execute:
        load_workload("dct")
    assert execute.call_count == 1
    assert {path.name for path in cache_dir.glob("dct-*.npz")} == {
        "dct-0123456789abcdef.npz", f"dct-{code_fingerprint()}.npz",
    }


def test_warm_hit_builds_no_program(cache_dir):
    first = load_workload("dct")
    suite.load_workload.cache_clear()  # simulate a new process
    with mock.patch.object(
        suite, "get_benchmark",
        side_effect=AssertionError("a cache hit must not build"),
    ):
        second = load_workload("dct")
    assert second.cycles == first.cycles
    assert np.array_equal(second.fetch.addr, first.fetch.addr)
    assert np.array_equal(second.trace.data.addr, first.trace.data.addr)


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
        with mock.patch.object(
            suite, "code_fingerprint",
            side_effect=AssertionError("no key without a cache"),
        ):
            workload = load_workload("dct")
        assert workload.cycles > 0
    finally:
        suite.load_workload.cache_clear()


def test_default_cache_dir_honours_xdg(monkeypatch):
    monkeypatch.delenv(suite.TRACE_CACHE_ENV, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", "/some/cache")
    assert str(suite.trace_cache_dir()) == "/some/cache/repro-traces"


def test_store_gc_removes_stale_archives_and_leftover_temp_files(
    cache_dir, tmp_path_factory, monkeypatch, capsys
):
    """``repro store gc`` deletes exactly the archives of other code
    versions and the temporary files of interrupted writes."""
    from repro.cli import main as cli_main
    from repro.store import STORE_ENV, reset_default_stores

    stale = cache_dir / "dct-0123456789abcdef.npz"
    current = cache_dir / f"dct-{code_fingerprint()}.npz"
    leftover = cache_dir / "tmpk2x9q1.tmp.npz"
    unrelated = cache_dir / "notes-0123456789abcdef.txt"
    for path in (stale, current, leftover, unrelated):
        path.write_bytes(b"x")
    store_dir = tmp_path_factory.mktemp("store")
    monkeypatch.setenv(STORE_ENV, str(store_dir / "results.sqlite"))
    reset_default_stores()
    try:
        assert cli_main(["store", "gc"]) == 0
    finally:
        reset_default_stores()
    assert "removed 2 stale trace archive(s)" in capsys.readouterr().out
    assert sorted(path.name for path in cache_dir.iterdir()) == sorted(
        [current.name, unrelated.name]
    )

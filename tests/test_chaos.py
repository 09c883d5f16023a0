"""Chaos suite: the service under injected faults.

The acceptance bar for the fault-tolerance work: a worker subprocess
killed mid-batch and a server killed mid-job must both leave batches
that *complete byte-identically* to a fault-free in-process run —
durability and retries may cost latency, never bytes.  Every scenario
runs against a private result store and job queue so the injected
faults hit real simulations, and uses the deterministic harness in
:mod:`repro.testing.faults` so the failures are reproducible.
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.api import RunSpec, clear_result_cache, evaluate_many
from repro.service import (
    ServiceClient,
    ServiceError,
    create_server,
    wait_until_ready,
)
from repro.service.jobs import JOB_DB_ENV
from repro.store import STORE_ENV, reset_default_stores
from repro.testing import faults


def _specs(count=3, seed_base=700):
    """Unique synthetic design points (private to this suite)."""
    return [
        RunSpec(
            cache="dcache",
            arch="way-memo-2x8" if index % 2 else "original",
            workload=f"synthetic:num_accesses=512,seed={seed_base + index}",
        )
        for index in range(count)
    ]


def _clean_baseline(specs):
    """What the service must reproduce, byte for byte."""
    return [
        r.to_json()
        for r in evaluate_many(specs, workers=1, use_cache=False)
    ]


@pytest.fixture
def isolated_state(tmp_path, monkeypatch):
    """Private store + job queue: faults hit real simulations."""
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "results.sqlite"))
    monkeypatch.setenv(JOB_DB_ENV, str(tmp_path / "jobs.sqlite"))
    reset_default_stores()
    clear_result_cache()
    yield tmp_path
    clear_result_cache()
    reset_default_stores()


@contextlib.contextmanager
def live_server(**config):
    server = create_server(port=0, **config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        wait_until_ready(url)
        yield server, url
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# worker crashes and hangs
# ----------------------------------------------------------------------

def test_worker_crash_mid_batch_completes_byte_identical(
    isolated_state,
):
    specs = _specs(seed_base=700)
    baseline = _clean_baseline(specs)
    with faults.activate(
        "worker_crash:2", state_dir=isolated_state / "state"
    ) as plan:
        with live_server() as (server, url):
            remote = ServiceClient(url).evaluate_many(specs)
            stats = server.queue.stats()
        assert plan.fired("worker_crash") == 2
    assert [r.to_json() for r in remote] == baseline
    # Every spec finished despite the two murdered attempts...
    assert stats["tasks"]["done"] == len(specs)
    assert stats["tasks"]["failed"] == 0
    # ...and every completed result was written through to the store.
    from repro.store import default_store

    assert default_store().stats()["entries"] == len(specs)


def test_worker_crash_mid_grouped_task_completes_byte_identical(
    isolated_state,
):
    """Four architectures on ONE shared workload: the replay planner
    claims them as a single grouped task, the injected crash takes the
    whole group's subprocess down, and the retry still completes every
    spec byte-identically with per-task durability intact."""
    import sqlite3

    shared = "synthetic:num_accesses=512,seed=900"
    specs = [
        RunSpec(cache="dcache", arch=arch, workload=shared)
        for arch in ("original", "two-phase", "way-prediction",
                     "way-memo-2x8")
    ]
    baseline = _clean_baseline(specs)
    with faults.activate(
        "worker_crash:1", state_dir=isolated_state / "state"
    ) as plan:
        with live_server() as (server, url):
            remote = ServiceClient(url).evaluate_many(specs)
            stats = server.queue.stats()
        assert plan.fired("worker_crash") == 1
    assert [r.to_json() for r in remote] == baseline
    assert stats["tasks"]["done"] == len(specs)
    assert stats["tasks"]["failed"] == 0
    # The *single* injected crash cost more than one task an attempt —
    # the proof the victim was a grouped task, not a lone spec.
    with contextlib.closing(
        sqlite3.connect(isolated_state / "jobs.sqlite")
    ) as connection:
        attempts = [
            row[0]
            for row in connection.execute("SELECT attempts FROM tasks")
        ]
    assert len(attempts) == len(specs)
    assert sum(1 for count in attempts if count >= 2) >= 2


def test_worker_crash_mid_seven_arch_group_completes_byte_identical(
    isolated_state,
):
    """The full seven-architecture replay group on one shared workload.
    Six members derive their counters from one shared sweep and the
    filter cache walks its own L1 stream, so a crash mid-group must
    not leave any of them with partial state: the retry re-splits the
    columns and every spec still lands byte-identical to the
    fault-free serial run."""
    shared = "synthetic:num_accesses=512,seed=910"
    specs = [
        RunSpec(cache="dcache", arch=arch, workload=shared)
        for arch in ("original", "two-phase", "way-prediction",
                     "set-buffer", "filter-cache", "way-memo-2x8",
                     "way-memo+line-buffer")
    ]
    baseline = _clean_baseline(specs)
    with faults.activate(
        "worker_crash:1", state_dir=isolated_state / "state"
    ) as plan:
        with live_server() as (server, url):
            remote = ServiceClient(url).evaluate_many(specs)
            stats = server.queue.stats()
        assert plan.fired("worker_crash") == 1
    assert [r.to_json() for r in remote] == baseline
    assert stats["tasks"]["done"] == len(specs)
    assert stats["tasks"]["failed"] == 0


def _three_streams(seed_base):
    """Two design points on each of three synthetic streams: three
    replay groups."""
    return [
        RunSpec(
            cache="dcache", arch=arch,
            workload=f"synthetic:num_accesses=512,seed={seed_base + index}",
        )
        for index in range(3)
        for arch in ("original", "way-memo-2x8")
    ]


def _scrape(url, name):
    return next(
        (float(line.split()[1])
         for line in ServiceClient(url).metrics().splitlines()
         if line.startswith(f"{name} ")),
        0.0,
    )


def test_one_worker_claim_reports_progress_group_by_group(
    isolated_state, monkeypatch,
):
    """A one-worker server runs the whole three-stream batch in one
    subprocess, yet a poller sees it finish group by group: each
    replay group's results are recorded as the group completes."""
    specs = _three_streams(seed_base=800)
    baseline = _clean_baseline(specs)
    monkeypatch.setenv(faults.SLOW_SIM_ENV, "0.3")
    with faults.activate(
        "slow_sim:1.0", state_dir=isolated_state / "state"
    ):
        with live_server(workers=1) as (server, url):
            spawns = _scrape(url, "repro_pool_spawns_total")
            job_id = ServiceClient(url).submit_async(specs)
            seen = []
            results = ServiceClient(url).wait_job(
                job_id, poll=0.05, timeout=120, on_progress=seen.append,
            )
            spawns = _scrape(url, "repro_pool_spawns_total") - spawns
    assert [r.to_json() for r in results] == baseline
    assert spawns == 1
    in_flight = {
        status["done"] for status in seen if status["state"] != "done"
    }
    assert {2, 4} <= in_flight <= {0, 2, 4}


def test_crashing_claim_retries_group_by_group_without_dead_letters(
    isolated_state,
):
    """Three crashes against three replay groups on a one-worker
    server (three attempts each): the first crash costs the whole
    claim an attempt, but retries are claimed one group at a time, so
    the next two land on different groups and nothing dead-letters —
    re-claiming the retries as one batch would exhaust every task."""
    specs = _three_streams(seed_base=810)
    baseline = _clean_baseline(specs)
    with faults.activate(
        "worker_crash:3", state_dir=isolated_state / "state"
    ) as plan:
        with live_server(workers=1) as (server, url):
            remote = ServiceClient(url).evaluate_many(specs)
            stats = server.queue.stats()
        assert plan.fired("worker_crash") == 3
    assert [r.to_json() for r in remote] == baseline
    assert stats["tasks"]["done"] == len(specs)
    assert stats["tasks"]["failed"] == 0


def test_hung_worker_is_killed_and_retried(isolated_state):
    specs = _specs(count=1, seed_base=710)
    baseline = _clean_baseline(specs)
    with faults.activate(
        "worker_hang:1", state_dir=isolated_state / "state"
    ) as plan:
        with live_server(task_timeout=1.0) as (server, url):
            remote = ServiceClient(url, timeout=120.0).evaluate_many(
                specs
            )
        assert plan.fired("worker_hang") == 1
    assert [r.to_json() for r in remote] == baseline


def test_flapping_worker_retry_telemetry_reaches_the_client(
    isolated_state,
):
    """A worker that crashes twice before succeeding must be *visible*:
    the job status narrates the in-flight retries (attempts + last
    error) to a polling client, and ``/v1/metrics`` counts the crashes
    and re-queues — all without costing a byte of the result."""
    import urllib.request

    specs = _specs(count=1, seed_base=705)
    baseline = _clean_baseline(specs)
    def scrape(url, name):
        text = urllib.request.urlopen(
            f"{url}/v1/metrics", timeout=30
        ).read().decode("utf-8")
        for line in text.splitlines():
            if line.startswith(f"{name} "):
                return float(line.split()[1])
        return 0.0

    with faults.activate(
        "worker_crash:2", state_dir=isolated_state / "state"
    ) as plan:
        with live_server(max_attempts=5) as (server, url):
            client = ServiceClient(url)
            crashes_before = scrape(url, "repro_pool_crashes_total")
            retries_before = scrape(url, "repro_queue_retries_total")
            job_id = client.submit_async(specs)
            seen = []
            results = client.wait_job(
                job_id, poll=0.05, timeout=120,
                on_progress=seen.append,
            )
            crashed = (
                scrape(url, "repro_pool_crashes_total")
                - crashes_before
            )
            retried = (
                scrape(url, "repro_queue_retries_total")
                - retries_before
            )
        assert plan.fired("worker_crash") == 2
    assert [r.to_json() for r in results] == baseline
    # The poll loop observed the flapping mid-flight: some status
    # carried a retrying task with its attempt count and crash error.
    narrated = [
        info
        for status in seen
        for info in (status.get("task_errors") or {}).values()
    ]
    assert narrated, "no poll observed the retrying task"
    assert any(info["attempts"] >= 1 for info in narrated)
    assert any("exit code" in info["last_error"] for info in narrated)
    # The fleet-level counters agree with the injected plan.
    assert crashed == 2
    assert retried == 2


def test_exhausted_retries_dead_letter_as_a_clean_500(isolated_state):
    specs = _specs(count=1, seed_base=720)
    with faults.activate(
        "worker_crash:99", state_dir=isolated_state / "state"
    ):
        with live_server(max_attempts=2) as (server, url):
            client = ServiceClient(url, retries=0)
            with pytest.raises(ServiceError) as err:
                client.evaluate_many(specs)
            assert err.value.status == 500
            assert "evaluation failed" in err.value.message
            assert "exit code" in err.value.message
            # The dead letter is durable and visible via the job API.
            (summary,) = client.jobs()
            assert summary["state"] == "failed"
            assert summary["attempts"] == 2


def test_failed_async_job_reports_per_spec_errors(isolated_state):
    specs = _specs(count=1, seed_base=730)
    with faults.activate(
        "worker_crash:99", state_dir=isolated_state / "state"
    ):
        with live_server(max_attempts=2) as (server, url):
            client = ServiceClient(url, retries=0)
            job_id = client.submit_async(specs)
            with pytest.raises(ServiceError) as err:
                client.wait_job(job_id, timeout=60)
            assert f"job {job_id} failed" in err.value.message
            assert specs[0].key() in err.value.message


# ----------------------------------------------------------------------
# server restart mid-job
# ----------------------------------------------------------------------

def test_server_restart_mid_job_completes_byte_identical(
    isolated_state, monkeypatch,
):
    specs = _specs(count=4, seed_base=740)
    baseline = _clean_baseline(specs)
    monkeypatch.setenv(faults.SLOW_SIM_ENV, "0.6")
    with faults.activate(
        "slow_sim:1.0", state_dir=isolated_state / "state"
    ):
        # Server A accepts the job and starts grinding through it...
        server_a = create_server(port=0)
        thread = threading.Thread(
            target=server_a.serve_forever, daemon=True
        )
        thread.start()
        url_a = f"http://127.0.0.1:{server_a.server_address[1]}"
        wait_until_ready(url_a)
        job_id = ServiceClient(url_a).submit_async(specs)
        deadline = time.time() + 60
        while time.time() < deadline:
            status = ServiceClient(url_a).job_status(job_id)
            if status["done"] >= 1 and status["state"] != "done":
                break
            time.sleep(0.05)
        else:
            pytest.fail("job never reached a mid-flight state")
        # ...and dies abruptly: no drain, in-flight work abandoned.
        server_a.shutdown()
        server_a.server_close()
        # Server B opens the same durable queue, recovers the orphaned
        # lease, and finishes the job — on a different port, as a
        # client reconnecting after an outage would find it.
        with live_server() as (server_b, url_b):
            results = ServiceClient(url_b).wait_job(job_id, timeout=120)
    assert [r.to_json() for r in results] == baseline


# ----------------------------------------------------------------------
# client resilience
# ----------------------------------------------------------------------

def test_client_retries_through_a_flapping_server(isolated_state):
    specs = _specs(count=1, seed_base=750)
    baseline = _clean_baseline(specs)
    with faults.activate(
        "http_error:3", state_dir=isolated_state / "state"
    ):
        with live_server() as (server, url):
            # Fail-fast client: the injected 500 is surfaced (but
            # marked retryable, so a retrying caller knows better).
            with pytest.raises(ServiceError) as err:
                ServiceClient(url, retries=0).evaluate_many(specs)
            assert err.value.status == 500
            assert err.value.retryable is True
            # Retrying client: outlasts the remaining budget.
            remote = ServiceClient(
                url, retries=4, backoff=0.01
            ).evaluate_many(specs)
    assert [r.to_json() for r in remote] == baseline


def test_client_survives_a_full_server_outage_while_polling(
    isolated_state,
):
    """wait_job keeps polling through connection-refused: the job is
    durable, so the next healthy poll finds it finished."""
    specs = _specs(count=1, seed_base=760)
    baseline = _clean_baseline(specs)
    with live_server() as (server_a, url):
        port = server_a.server_address[1]
        job_id = ServiceClient(url).submit_async(specs)
        ServiceClient(url).wait_job(job_id, timeout=60)
    # The server is gone; every poll now fails at the socket layer.
    client = ServiceClient(url, retries=0)
    with pytest.raises(ServiceError) as err:
        client.job_status(job_id)
    assert err.value.status == 0 and err.value.retryable is True
    # A poll loop with an outage budget rides it out: restart the
    # service on the same port mid-poll and the results come back.
    restarted = []

    def bring_back_up():
        time.sleep(0.5)
        server_b = create_server(port=port)
        threading.Thread(
            target=server_b.serve_forever, daemon=True
        ).start()
        restarted.append(server_b)

    reviver = threading.Thread(target=bring_back_up, daemon=True)
    reviver.start()
    try:
        results = client.wait_job(
            job_id, poll=0.1, timeout=60, outage_budget=30
        )
    finally:
        reviver.join()
        for server_b in restarted:
            server_b.shutdown()
            server_b.server_close()
    assert [r.to_json() for r in results] == baseline


def test_polling_outage_budget_eventually_gives_up(isolated_state):
    client = ServiceClient("http://127.0.0.1:9", retries=0)
    with pytest.raises(ServiceError) as err:
        client.wait_job("feedface", poll=0.05, outage_budget=0.2)
    assert "unreachable" in err.value.message


# ----------------------------------------------------------------------
# load shedding, drain, store degradation
# ----------------------------------------------------------------------

def test_full_queue_sheds_load_with_retry_after(isolated_state):
    specs = _specs(count=1, seed_base=770)
    with live_server(queue_limit=0) as (server, url):
        with pytest.raises(ServiceError) as err:
            ServiceClient(url, retries=0).evaluate_many(specs)
    assert err.value.status == 503
    assert err.value.retryable is True
    assert err.value.retry_after == pytest.approx(2.0)
    assert "queue is full" in err.value.message


def test_draining_server_refuses_new_work(isolated_state):
    specs = _specs(count=1, seed_base=780)
    with live_server() as (server, url):
        server.drain(timeout=10)
        assert ServiceClient(url).healthz()["draining"] is True
        with pytest.raises(ServiceError) as err:
            ServiceClient(url, retries=0).evaluate_many(specs)
        assert err.value.status == 503
        assert "draining" in err.value.message


def test_store_read_faults_degrade_not_500(isolated_state, capsys):
    """A dead store costs cache hits and a warning — the batch still
    answers 200 with the right bytes."""
    specs = _specs(count=2, seed_base=790)
    baseline = _clean_baseline(specs)
    with faults.activate(
        "store_read_error:1.0,store_write_error:1.0",
        state_dir=isolated_state / "state",
    ):
        with live_server() as (server, url):
            remote = ServiceClient(url).evaluate_many(specs)
    assert [r.to_json() for r in remote] == baseline
    assert "result store unavailable" in capsys.readouterr().err


def test_wait_until_ready_bounds_the_wait(isolated_state):
    with pytest.raises(TimeoutError, match="not ready"):
        wait_until_ready("http://127.0.0.1:9", timeout=0.3)

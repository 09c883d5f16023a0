"""Tests for the durable SQLite job queue behind the service.

The queue is the service's system of record: jobs must survive the
process that accepted them, leases must expire back into the pool,
failures must retry with backoff and then dead-letter, and identical
specs submitted by different jobs must collapse into one task — the
single-flight guarantee the HTTP layer leans on.  Everything here
runs against the queue directly (no server, no workers), so each
property is tested in isolation.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import RunSpec
from repro.service.jobs import JOB_DB_ENV, JobQueue, job_db_path

TINY = "synthetic:num_accesses=256,seed=3"


def _spec(arch="original", seed=3):
    return RunSpec(
        cache="dcache", arch=arch,
        workload=f"synthetic:num_accesses=256,seed={seed}",
    )


def _result_json(spec: RunSpec) -> str:
    """A stand-in result document (the queue never inspects it)."""
    return json.dumps({"spec_key": spec.key(), "ok": True})


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "jobs.sqlite", backoff_base=0.01)


# ----------------------------------------------------------------------
# happy path
# ----------------------------------------------------------------------

def test_submit_claim_complete_roundtrip(queue):
    spec = _spec()
    job_id = queue.submit([spec])
    (task,) = queue.claim_group(lease_seconds=30, workers=1)
    assert task.spec_key == spec.key()
    assert task.attempts == 1
    assert task.spec == spec
    queue.complete([task], [_result_json(spec)])
    status = queue.job_status(job_id)
    assert status["state"] == "done"
    assert status["done"] == 1 and status["failed"] == 0
    assert status["results"][spec.key()]["ok"] is True


def test_empty_queue_claims_nothing(queue):
    assert queue.claim_group(lease_seconds=30, workers=1) == []


def test_duplicate_specs_make_one_task_but_keep_key_order(queue):
    a, b = _spec(), _spec(arch="two-phase", seed=4)
    job_id = queue.submit([a, b, a])
    status = queue.job_status(job_id)
    assert status["keys"] == [a.key(), b.key(), a.key()]
    assert status["total"] == 2              # unique work items
    assert len(queue.claim_group(30, workers=2)) == 1
    assert len(queue.claim_group(30, workers=2)) == 1
    assert queue.claim_group(30, workers=2) == []   # no third task


def test_prefilled_tasks_are_born_done(queue):
    spec = _spec()
    job_id = queue.submit(
        [spec], prefilled={spec.key(): _result_json(spec)}
    )
    assert queue.claim_group(30, workers=1) == []   # nothing to run
    status = queue.job_status(job_id)
    assert status["state"] == "done"
    assert status["results"][spec.key()]["ok"] is True


def test_two_jobs_share_one_task_single_flight(queue):
    spec = _spec()
    first = queue.submit([spec])
    second = queue.submit([spec])
    (task,) = queue.claim_group(30, workers=1)
    assert queue.claim_group(30, workers=1) == []   # one task, two jobs
    queue.complete([task], [_result_json(spec)])
    assert queue.job_status(first)["state"] == "done"
    assert queue.job_status(second)["state"] == "done"


def test_job_status_tracks_progress(queue):
    a, b = _spec(), _spec(arch="two-phase", seed=4)
    job_id = queue.submit([a, b])
    assert queue.job_status(job_id)["state"] == "pending"
    (task,) = queue.claim_group(30, workers=2)
    status = queue.job_status(job_id)
    assert status["state"] == "running"
    assert status["running"] == 1 and status["done"] == 0
    queue.complete([task], [_result_json(task.spec)])
    status = queue.job_status(job_id)
    assert status["done"] == 1               # partial result visible
    assert set(status["results"]) == {task.spec_key}


def test_unknown_job_is_none(queue):
    assert queue.job_status("deadbeef") is None
    assert queue.job_keys("deadbeef") is None


# ----------------------------------------------------------------------
# failure, backoff, dead-letter
# ----------------------------------------------------------------------

def test_fail_requeues_with_backoff(tmp_path):
    queue = JobQueue(tmp_path / "jobs.sqlite", backoff_base=0.2)
    queue.submit([_spec()])
    (task,) = queue.claim_group(30, workers=1)
    assert queue.fail(task, "boom") is True  # will retry
    # Inside the backoff window the task is not claimable...
    assert queue.claim_group(30, workers=1) == []
    # ...and becomes claimable once it elapses, as a fresh attempt.
    deadline = time.time() + 5
    retried = []
    while not retried and time.time() < deadline:
        retried = queue.claim_group(30, workers=1)
        time.sleep(0.02)
    assert len(retried) == 1
    assert retried[0].attempts == 2


def test_backoff_grows_exponentially_and_caps(queue):
    assert queue.backoff_delay(1) == pytest.approx(0.01)
    assert queue.backoff_delay(2) == pytest.approx(0.02)
    assert queue.backoff_delay(3) == pytest.approx(0.04)
    assert queue.backoff_delay(100) == pytest.approx(queue.backoff_cap)


def test_dead_letter_after_max_attempts(tmp_path):
    queue = JobQueue(
        tmp_path / "jobs.sqlite", max_attempts=2, backoff_base=0.0
    )
    spec = _spec()
    job_id = queue.submit([spec])
    (first,) = queue.claim_group(30, workers=1)
    assert queue.fail(first, "boom 1") is True
    (second,) = queue.claim_group(30, workers=1)
    assert second.attempts == 2
    assert queue.fail(second, "boom 2") is False   # dead-lettered
    assert queue.claim_group(30, workers=1) == []  # never retried again
    status = queue.job_status(job_id)
    assert status["state"] == "failed"
    assert status["errors"][spec.key()] == "boom 2"


def test_max_attempts_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="max_attempts"):
        JobQueue(tmp_path / "jobs.sqlite", max_attempts=0)


# ----------------------------------------------------------------------
# leases and crash recovery
# ----------------------------------------------------------------------

def test_expired_lease_is_reclaimed_as_a_new_attempt(queue):
    queue.submit([_spec()])
    (first,) = queue.claim_group(lease_seconds=0.01, workers=1)
    time.sleep(0.05)                         # the "worker" went silent
    (second,) = queue.claim_group(lease_seconds=30, workers=1)
    assert second.spec_key == first.spec_key
    assert second.attempts == 2


def test_live_lease_is_not_double_claimed(queue):
    queue.submit([_spec()])
    assert len(queue.claim_group(lease_seconds=60, workers=1)) == 1
    assert queue.claim_group(lease_seconds=60, workers=1) == []


def test_recover_requeues_orphaned_running_tasks(tmp_path):
    path = tmp_path / "jobs.sqlite"
    crashed = JobQueue(path)
    job_id = crashed.submit([_spec()])
    assert len(crashed.claim_group(lease_seconds=3600, workers=1)) == 1
    # A new server opens the same file: the lease holder is dead by
    # definition (single-node queue), however long its lease runs.
    restarted = JobQueue(path)
    assert restarted.recover() == 1
    (task,) = restarted.claim_group(30, workers=1)
    assert task.attempts == 2
    restarted.complete([task], [_result_json(task.spec)])
    assert restarted.job_status(job_id)["state"] == "done"


def test_recover_dead_letters_orphans_out_of_attempts(tmp_path):
    path = tmp_path / "jobs.sqlite"
    crashed = JobQueue(path, max_attempts=1)
    job_id = crashed.submit([_spec()])
    assert len(crashed.claim_group(lease_seconds=3600, workers=1)) == 1
    restarted = JobQueue(path, max_attempts=1)
    assert restarted.recover() == 0
    status = restarted.job_status(job_id)
    assert status["state"] == "failed"
    assert "worker lost mid-attempt" in list(status["errors"].values())[0]


def test_jobs_survive_reopening_the_file(tmp_path):
    """Durability: the job outlives the queue object that accepted it."""
    path = tmp_path / "jobs.sqlite"
    job_id = JobQueue(path).submit([_spec()])
    reopened = JobQueue(path)
    assert reopened.job_status(job_id)["state"] == "pending"
    (task,) = reopened.claim_group(30, workers=1)
    reopened.complete([task], [_result_json(task.spec)])
    assert reopened.job_status(job_id)["state"] == "done"


# ----------------------------------------------------------------------
# guided claims of whole replay groups
# ----------------------------------------------------------------------

GROUP_ARCHS = ("original", "two-phase", "way-memo-2x8")


def _replay_groups(count):
    """``count`` replay groups of three fast-engine specs each: one
    synthetic workload per group."""
    return [
        [_spec(arch=arch, seed=40 + group) for arch in GROUP_ARCHS]
        for group in range(count)
    ]


def _claims(queue, workers):
    """Claim until the queue is idle; returns the claims."""
    claims = []
    while True:
        tasks = queue.claim_group(30, workers=workers)
        if not tasks:
            return claims
        claims.append(tasks)


def _workloads(tasks):
    return {task.spec.workload for task in tasks}


@pytest.mark.parametrize("workers, sizes", [(2, [6, 3, 3]), (1, [12])])
def test_guided_claims_take_whole_fresh_groups(queue, workers, sizes):
    """Four fresh groups of three.  Two workers: ⌈12/2⌉ = 6 tasks (two
    groups), then ⌈6/2⌉ = 3, then ⌈3/2⌉ -> one whole group; one
    worker: the whole batch at once."""
    groups = _replay_groups(4)
    queue.submit([spec for group in groups for spec in group])
    claims = _claims(queue, workers)
    assert [len(claim) for claim in claims] == sizes
    # Whole groups only, every task claimed once, as a first attempt.
    by_workload = {group[0].workload: group for group in groups}
    for claim in claims:
        assert sorted(task.spec_key for task in claim) == sorted(
            spec.key()
            for workload in _workloads(claim)
            for spec in by_workload[workload]
        )
    assert all(task.attempts == 1 for claim in claims for task in claim)


def test_retried_task_is_claimed_with_only_its_groups_retried_tasks(
    tmp_path,
):
    queue = JobQueue(tmp_path / "jobs.sqlite", backoff_base=0.0)
    groups = _replay_groups(2)
    queue.submit([spec for group in groups for spec in group])
    claim = queue.claim_group(30, workers=1)
    assert len(claim) == 6
    for task in claim:                       # the worker crashed
        queue.fail(task, "boom")
    time.sleep(0.01)
    # A fresh spec on the first group's workload arrives meanwhile.
    newcomer = _spec(arch="way-prediction", seed=40)
    queue.submit([newcomer])
    claims = _claims(queue, workers=1)
    assert [len(claim) for claim in claims] == [3, 3, 1]
    for claim, group in zip(claims, groups):
        assert {task.spec_key for task in claim} == {
            spec.key() for spec in group
        }
        assert all(task.attempts == 2 for task in claim)
    assert [(task.spec_key, task.attempts) for task in claims[2]] == [
        (newcomer.key(), 1)
    ]


def test_reference_engine_task_is_claimed_alone(queue):
    first = RunSpec(
        cache="dcache", arch="original", workload=TINY,
        engine="reference",
    )
    queue.submit([first])
    time.sleep(0.01)
    fast = [_spec(arch=arch) for arch in GROUP_ARCHS]
    second = RunSpec(
        cache="dcache", arch="two-phase", workload=TINY,
        engine="reference",
    )
    queue.submit([*fast, second])
    claims = _claims(queue, workers=1)
    assert [[task.spec_key for task in claim] for claim in claims] == [
        [first.key()],
        [spec.key() for spec in fast],
        [second.key()],
    ]


# ----------------------------------------------------------------------
# waiting, listing, diagnostics
# ----------------------------------------------------------------------

def test_wait_job_returns_in_flight_status_on_timeout(queue):
    job_id = queue.submit([_spec()])
    status = queue.wait_job(job_id, timeout=0.05)
    assert status["state"] == "pending"


def test_wait_job_sees_completion(queue):
    spec = _spec()
    job_id = queue.submit(
        [spec], prefilled={spec.key(): _result_json(spec)}
    )
    status = queue.wait_job(job_id, timeout=5)
    assert status["state"] == "done"


def test_wait_job_polls_states_and_builds_the_status_once(
    queue, monkeypatch,
):
    """The sync batch path: while the job runs only task states are
    read; the full document, results parsed, is built once it settles
    — and a completion from another thread wakes the waiter."""
    spec = _spec()
    job_id = queue.submit([spec])
    (task,) = queue.claim_group(30, workers=1)
    built = []
    job_status = queue.job_status
    monkeypatch.setattr(
        queue, "job_status",
        lambda job: built.append(job) or job_status(job),
    )
    finisher = threading.Timer(
        0.2, queue.complete, ([task], [_result_json(spec)])
    )
    finisher.start()
    status = queue.wait_job(job_id, timeout=10)
    finisher.join()
    assert status["state"] == "done"
    assert status["results"][spec.key()]["ok"] is True
    assert built == [job_id]


def test_complete_records_a_group_in_one_call(queue):
    a, b = _spec(), _spec(arch="two-phase")
    job_id = queue.submit([a, b])
    tasks = queue.claim_group(30, workers=1)
    assert len(tasks) == 2
    queue.complete(tasks, [_result_json(task.spec) for task in tasks])
    status = queue.job_status(job_id)
    assert status["state"] == "done"
    assert set(status["results"]) == {a.key(), b.key()}
    with pytest.raises(ValueError, match="result"):
        queue.complete(tasks, [])


def test_list_jobs_is_newest_first_without_payloads(queue):
    first = queue.submit([_spec()])
    time.sleep(0.01)
    second = queue.submit([_spec(arch="two-phase")])
    summaries = queue.list_jobs()
    assert [s["id"] for s in summaries] == [second, first]
    assert all("results" not in s and "keys" not in s
               for s in summaries)


def test_depth_and_stats_count_outstanding_work(queue):
    a, b = _spec(), _spec(arch="two-phase", seed=4)
    queue.submit([a, b])
    assert queue.depth() == 2
    (task,) = queue.claim_group(30, workers=2)
    assert queue.depth() == 2                # running still counts
    queue.complete([task], [_result_json(task.spec)])
    assert queue.depth() == 1
    stats = queue.stats()
    assert stats["jobs"] == 1
    assert stats["tasks"]["done"] == 1
    assert stats["tasks"]["pending"] == 1


def test_job_db_path_honors_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(JOB_DB_ENV, str(tmp_path / "q.sqlite"))
    assert job_db_path() == tmp_path / "q.sqlite"
    monkeypatch.delenv(JOB_DB_ENV)
    monkeypatch.setenv(
        "REPRO_RESULT_STORE", str(tmp_path / "store" / "r.sqlite")
    )
    assert job_db_path() == tmp_path / "store" / "jobs.sqlite"

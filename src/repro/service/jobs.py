"""Durable SQLite-backed job queue for the evaluation service.

``POST /v1/batch`` used to evaluate inside the request thread: a hung
simulation wedged the server, a killed process lost the whole batch.
This module makes the queue the system of record instead.  A **job**
is one submitted batch — an ordered list of canonical spec keys
(duplicates preserved, so responses reassemble in input order).  A
**task** is one unique ``(spec_key, schema, fingerprint)`` unit of
simulation work, shared by every job that asks the same question:
two jobs (or two hundred clients) naming the same design point hold
one task between them, and exactly one worker simulates it —
single-flight coalescing on the same content address the result
store uses.

Task lifecycle::

    pending ──claim──▶ running ──complete──▶ done
       ▲                 │ fail / lease expiry / crash
       └──── backoff ────┘          (attempts < max)
                         └──────────▶ failed   (dead letter)

* **Leases**: a claim marks the task running until ``lease_deadline``.
  A worker that crashes or hangs never completes its lease; the next
  claim (or :meth:`JobQueue.recover` on server restart) takes the
  task back.  Durability is the point: jobs live in SQLite and
  survive server restarts.
* **Retries**: each failure re-queues with capped exponential backoff
  (``not_before``); after ``max_attempts`` the task dead-letters as
  ``failed`` and every job holding it fails with its error.
* Results are recorded on the task *and* written through to the
  result store, so a completed question is never simulated again.

Job state is derived from its tasks on read: ``failed`` if any task
dead-lettered, ``done`` if all done, ``running`` if any task is
claimed, else ``pending``.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.result import RESULT_SCHEMA_VERSION
from repro.api.spec import RunSpec
from repro.store import code_fingerprint, store_path
from repro.telemetry import metrics as telemetry

#: Environment variable overriding the job-queue database location.
JOB_DB_ENV = "REPRO_JOB_DB"

#: Task states (jobs derive theirs from these).
PENDING, RUNNING, DONE, FAILED = "pending", "running", "done", "failed"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id        TEXT    PRIMARY KEY,
    created_at    REAL    NOT NULL,
    result_schema INTEGER NOT NULL,
    fingerprint   TEXT    NOT NULL,
    spec_keys     TEXT    NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    spec_key       TEXT    NOT NULL,
    result_schema  INTEGER NOT NULL,
    fingerprint    TEXT    NOT NULL,
    state          TEXT    NOT NULL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    not_before     REAL    NOT NULL DEFAULT 0,
    lease_deadline REAL,
    result_json    TEXT,
    error          TEXT,
    created_at     REAL    NOT NULL,
    PRIMARY KEY (spec_key, result_schema, fingerprint)
);
CREATE INDEX IF NOT EXISTS tasks_by_state
    ON tasks (state, not_before);
"""


def job_db_path() -> Path:
    """Resolved queue location: ``$REPRO_JOB_DB``, else a
    ``jobs.sqlite`` next to the result store, else a per-boot temp
    file (no durable location exists when persistence is off)."""
    env = os.environ.get(JOB_DB_ENV)
    if env:
        return Path(env).expanduser()
    store = store_path()
    if store is not None:
        return store.parent / "jobs.sqlite"
    return Path(tempfile.gettempdir()) / f"repro-jobs-{os.getuid()}.sqlite"


class Task:
    """One claimed unit of work (handed to a worker)."""

    __slots__ = ("spec_key", "attempts")

    def __init__(self, spec_key: str, attempts: int):
        self.spec_key = spec_key
        self.attempts = attempts

    @property
    def spec(self) -> RunSpec:
        return RunSpec.from_json(self.spec_key)


class JobQueue:
    """One durable queue file (thread-safe; short-lived connections)."""

    def __init__(
        self,
        path: Union[str, Path],
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 30.0,
    ):
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.path = Path(path)
        self.fingerprint = code_fingerprint()
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Signaled whenever work may have become available; workers
        #: wait on it instead of busy-polling an idle queue.
        self.work_available = threading.Event()
        #: Signaled whenever a task finishes (``wait_job`` wakes up);
        #: ``_finished`` counts the signals, so a waiter that polled
        #: just before one does not sleep through it.
        self._task_done = threading.Condition()
        self._finished = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connect().close()   # create the schema / verify the file

    # -- plumbing ------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=30.0, isolation_level=None
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        return conn

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """A connection inside ``BEGIN IMMEDIATE``, committed when the
        block ends and rolled back if it raises."""
        conn = self._connect()
        try:
            conn.execute("BEGIN IMMEDIATE")
            yield conn
            conn.execute("COMMIT")
        finally:
            conn.close()

    def _address(self) -> Tuple[int, str]:
        return RESULT_SCHEMA_VERSION, self.fingerprint

    def backoff_delay(self, attempts: int) -> float:
        """Capped exponential backoff after the ``attempts``-th failure."""
        return min(
            self.backoff_cap, self.backoff_base * (2 ** (attempts - 1))
        )

    # -- enqueue -------------------------------------------------------

    def submit(
        self,
        specs: Sequence[RunSpec],
        prefilled: Optional[Dict[str, str]] = None,
    ) -> str:
        """Create a job for ``specs``; returns its id immediately.

        ``prefilled`` maps spec keys to result JSON already known
        (store hits resolved by the caller) — those tasks are born
        ``done`` and never reach a worker.  Tasks already present
        (any state) are reused as-is: that is the single-flight
        guarantee across concurrent jobs.
        """
        schema, fingerprint = self._address()
        keys = [spec.key() for spec in specs]
        job_id = secrets.token_hex(8)
        now = time.time()
        prefilled = prefilled or {}
        with self._transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (job_id, created_at, result_schema,"
                " fingerprint, spec_keys) VALUES (?, ?, ?, ?, ?)",
                (job_id, now, schema, fingerprint, json.dumps(keys)),
            )
            for key in dict.fromkeys(keys):
                document = prefilled.get(key)
                conn.execute(
                    "INSERT OR IGNORE INTO tasks (spec_key,"
                    " result_schema, fingerprint, state, result_json,"
                    " created_at) VALUES (?, ?, ?, ?, ?, ?)",
                    (key, schema, fingerprint,
                     DONE if document is not None else PENDING,
                     document, now),
                )
        telemetry.counter(
            "repro_queue_jobs_submitted_total",
            "Jobs accepted by the durable queue.",
        ).inc()
        self.work_available.set()
        return job_id

    # -- worker side ---------------------------------------------------

    @staticmethod
    def _count_claims(prior_states: Sequence[str]) -> None:
        """Account claimed tasks; a RUNNING prior state means the
        claim took over an expired lease."""
        telemetry.counter(
            "repro_queue_claims_total", "Task leases claimed."
        ).inc(len(prior_states))
        expired = sum(1 for state in prior_states if state == RUNNING)
        telemetry.counter(
            "repro_queue_lease_expiries_total",
            "Claims that reclaimed an expired lease.",
        ).inc(expired)

    @staticmethod
    def _replay_group_key(spec_key: str) -> Optional[Tuple[str, str]]:
        """The (cache side, workload) replay-group key of a spec key.

        None when the spec cannot join a shared-workload replay group
        (reference engine, or an unparseable key).
        """
        try:
            document = json.loads(spec_key)
        except ValueError:
            return None
        if document.get("engine") != "fast":
            return None
        return (document.get("cache"), document.get("workload"))

    def claim_group(
        self, lease_seconds: float, workers: int
    ) -> List[Task]:
        """Lease the oldest runnable task plus a guided share of work.

        Runnable means pending past its backoff window — or running
        with an *expired* lease, which is how the work of a crashed
        or hung worker returns to the pool.  The expired re-claim
        counts as a fresh attempt, so a worker that silently dies N
        times still dead-letters.  The claim extends, in the same
        transaction, by whole replay groups — runnable tasks whose
        specs share ``(cache side, workload)`` on the fast engine,
        which ``evaluate_many`` replays in a single pass:

        * a fast-engine task that has never been attempted takes, in
          queue order, the replay groups of other such tasks until the
          claim holds ⌈R/P⌉ of the R runnable ones (P = ``workers``,
          the pool size: guided self-scheduling).  A one-worker pool
          takes a whole batch in one claim; a P-worker pool still
          splits it P ways and shares out the tail in shrinking claims;
        * a retried task (an earlier attempt failed, expired or was
          orphaned) is claimed with only its own group's retried
          tasks, so a spec that fails every attempt dead-letters its
          group, not the batch;
        * a reference-engine task is claimed alone.

        Returns ``[]`` when idle.  Every claimed task still tracks its
        own attempts and lease.
        """
        schema, fingerprint = self._address()
        now = time.time()
        with self._transaction() as conn:
            rows = conn.execute(
                "SELECT spec_key, attempts, state FROM tasks"
                " WHERE result_schema = ? AND fingerprint = ?"
                " AND ((state = ? AND not_before <= ?)"
                "  OR (state = ? AND lease_deadline < ?))"
                " ORDER BY created_at, spec_key",
                (schema, fingerprint, PENDING, now, RUNNING, now),
            ).fetchall()
            if not rows:
                return []
            first_key, first_attempts, _ = rows[0]
            group = self._replay_group_key(first_key)
            if group is None:
                selected = rows[:1]
            elif first_attempts:
                selected = [
                    row for row in rows
                    if row[1] and self._replay_group_key(row[0]) == group
                ]
            else:
                selected = self._guided_share(rows, workers)
            claimed = []
            for spec_key, attempts, _ in selected:
                conn.execute(
                    "UPDATE tasks SET state = ?, attempts = ?,"
                    " lease_deadline = ? WHERE spec_key = ?"
                    " AND result_schema = ? AND fingerprint = ?",
                    (RUNNING, attempts + 1, now + lease_seconds,
                     spec_key, schema, fingerprint),
                )
                claimed.append(Task(spec_key, attempts + 1))
        self._count_claims([state for _, _, state in selected])
        return claimed

    @classmethod
    def _guided_share(cls, rows: Sequence[tuple], workers: int) -> list:
        """Whole replay groups of never-attempted fast-engine rows, in
        queue order, until at least ⌈R/P⌉ of their R rows are held."""
        groups: Dict[Tuple[str, str], list] = {}
        for row in rows:
            if not row[1]:
                key = cls._replay_group_key(row[0])
                if key is not None:
                    groups.setdefault(key, []).append(row)
        runnable = sum(len(members) for members in groups.values())
        share = -(-runnable // workers)
        selected: list = []
        for members in groups.values():
            selected.extend(members)
            if len(selected) >= share:
                break
        return selected

    def complete(
        self, tasks: Sequence[Task], result_jsons: Sequence[str]
    ) -> None:
        """Record finished simulations in one transaction (every
        holding job sees them at once)."""
        if len(tasks) != len(result_jsons):
            raise ValueError(
                f"{len(tasks)} task(s) but {len(result_jsons)} result(s)"
            )
        self._finish(tasks, DONE, result_jsons, error=None)

    def fail(self, task: Task, error: str) -> bool:
        """Record a failed attempt.

        Re-queues with backoff while attempts remain; dead-letters as
        ``failed`` otherwise.  Returns True when the task will be
        retried.
        """
        if task.attempts < self.max_attempts:
            self._finish(
                [task], PENDING, [None], error=error,
                not_before=time.time()
                + self.backoff_delay(task.attempts),
            )
            telemetry.counter(
                "repro_queue_retries_total",
                "Failed attempts re-queued with backoff.",
            ).inc()
            return True
        self._finish([task], FAILED, [None], error=error)
        telemetry.counter(
            "repro_queue_dead_letters_total",
            "Tasks dead-lettered after exhausting attempts.",
        ).inc()
        return False

    def _finish(
        self,
        tasks: Sequence[Task],
        state: str,
        result_jsons: Sequence[Optional[str]],
        error: Optional[str],
        not_before: float = 0.0,
    ) -> None:
        schema, fingerprint = self._address()
        with self._transaction() as conn:
            conn.executemany(
                "UPDATE tasks SET state = ?, result_json = ?,"
                " error = ?, lease_deadline = NULL, not_before = ?"
                " WHERE spec_key = ? AND result_schema = ?"
                " AND fingerprint = ?",
                [(state, result_json, error, not_before,
                  task.spec_key, schema, fingerprint)
                 for task, result_json in zip(tasks, result_jsons)],
            )
        with self._task_done:
            self._finished += 1
            self._task_done.notify_all()
        if state == PENDING:
            self.work_available.set()

    def recover(self) -> int:
        """Re-queue every leased task (server restart).

        The queue is single-node: when a server starts, no worker of
        a previous incarnation can still be alive, so *any* running
        task is orphaned — re-queue it immediately instead of waiting
        out its lease.  The interrupted attempt still counts toward
        dead-lettering.  Returns the number of tasks re-queued.
        """
        schema, fingerprint = self._address()
        with self._transaction() as conn:
            requeued = conn.execute(
                "UPDATE tasks SET state = ?, lease_deadline = NULL"
                " WHERE state = ? AND result_schema = ?"
                " AND fingerprint = ? AND attempts < ?",
                (PENDING, RUNNING, schema, fingerprint,
                 self.max_attempts),
            ).rowcount
            # Orphans that already burned their last attempt
            # dead-letter instead of leaking as running forever.
            conn.execute(
                "UPDATE tasks SET state = ?, lease_deadline = NULL,"
                " error = COALESCE(error, 'worker lost mid-attempt')"
                " WHERE state = ? AND result_schema = ?"
                " AND fingerprint = ?",
                (FAILED, RUNNING, schema, fingerprint),
            )
        if requeued:
            self.work_available.set()
        return requeued

    def gc(self) -> Optional[int]:
        """Delete, in one transaction, every job and task row of another
        result schema or code fingerprint (no query of this code reaches
        them); returns how many.  While any such task is pending or
        running, a server running that code may still use the file, so
        nothing is deleted and the answer is None."""
        other = "(result_schema != ? OR fingerprint != ?)"
        address = self._address()
        with self._transaction() as conn:
            if conn.execute(
                f"SELECT COUNT(*) FROM tasks WHERE {other}"
                " AND state IN (?, ?)", (*address, PENDING, RUNNING),
            ).fetchone()[0]:
                return None
            return sum(
                conn.execute(
                    f"DELETE FROM {table} WHERE {other}", address
                ).rowcount
                for table in ("jobs", "tasks")
            )

    # -- read side -----------------------------------------------------

    def job_keys(self, job_id: str) -> Optional[List[str]]:
        """The job's ordered spec keys (duplicates preserved), or None."""
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT spec_keys FROM jobs WHERE job_id = ?"
                " AND result_schema = ? AND fingerprint = ?",
                (job_id, *self._address()),
            ).fetchone()
        finally:
            conn.close()
        return None if row is None else json.loads(row[0])

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Progress + partial results for one job, or None (unknown).

        ``results`` maps spec keys to result documents for every
        *finished* task — partial while the job runs, complete once
        ``state`` is ``done``.
        """
        schema, fingerprint = self._address()
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT spec_keys, created_at FROM jobs"
                " WHERE job_id = ? AND result_schema = ?"
                " AND fingerprint = ?",
                (job_id, schema, fingerprint),
            ).fetchone()
            if row is None:
                return None
            keys = json.loads(row[0])
            unique = list(dict.fromkeys(keys))
            tasks = self._task_rows(
                conn, unique, "state, attempts, result_json, error"
            )
        finally:
            conn.close()
        states = [tasks.get(key, (PENDING,))[0] for key in unique]
        job_state = self._job_state(states)
        results = {
            key: json.loads(entry[2])
            for key, entry in tasks.items()
            if entry[0] == DONE and entry[2] is not None
        }
        errors = {
            key: entry[3]
            for key, entry in tasks.items()
            if entry[0] == FAILED and entry[3]
        }
        # Retry/backoff telemetry: tasks that failed at least once but
        # are still in flight — what ``repro jobs --wait`` narrates
        # instead of polling silently.
        retrying = {
            key: {"attempts": entry[1], "last_error": entry[3]}
            for key, entry in tasks.items()
            if entry[0] in (PENDING, RUNNING) and entry[3]
        }
        return {
            "id": job_id,
            "state": job_state,
            "created_at": row[1],
            "keys": keys,
            "total": len(unique),
            "done": sum(1 for s in states if s == DONE),
            "failed": sum(1 for s in states if s == FAILED),
            "running": sum(1 for s in states if s == RUNNING),
            "attempts": sum(entry[1] for entry in tasks.values()),
            "retrying": len(retrying),
            "results": results,
            "errors": errors,
            "task_errors": retrying,
        }

    def _task_rows(
        self, conn: sqlite3.Connection, keys: Sequence[str], columns: str
    ) -> Dict[str, tuple]:
        """``columns`` of each task in ``keys`` that exists, by key."""
        if not keys:
            return {}
        marks = ",".join("?" for _ in keys)
        return {
            row[0]: row[1:]
            for row in conn.execute(
                f"SELECT spec_key, {columns} FROM tasks"
                f" WHERE result_schema = ? AND fingerprint = ?"
                f" AND spec_key IN ({marks})",
                (*self._address(), *keys),
            )
        }

    @staticmethod
    def _job_state(states: Sequence[str]) -> str:
        """A job's state from its tasks' (see the module docstring)."""
        if FAILED in states:
            return FAILED
        if all(state == DONE for state in states):
            return DONE
        if RUNNING in states:
            return RUNNING
        return PENDING

    def wait_job(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Block until the job is ``done``/``failed`` (or timeout).

        While the job runs only its task states are polled; the
        :meth:`job_status` document, results and all, is built once,
        when the job settles — or, on timeout, the latest in-flight
        document (state still pending/running).
        """
        keys = self.job_keys(job_id)
        if keys is None:
            return None
        unique = list(dict.fromkeys(keys))
        deadline = None if timeout is None else time.time() + timeout
        while True:
            with self._task_done:
                seen = self._finished
            conn = self._connect()
            try:
                states = self._task_rows(conn, unique, "state")
            finally:
                conn.close()
            if self._job_state(
                [states.get(key, (PENDING,))[0] for key in unique]
            ) in (DONE, FAILED):
                break
            remaining = 0.5
            if deadline is not None:
                remaining = min(remaining, deadline - time.time())
                if remaining <= 0:
                    break
            with self._task_done:
                self._task_done.wait_for(
                    lambda: self._finished != seen, remaining
                )
        return self.job_status(job_id)

    def list_jobs(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first job summaries (progress, no result payloads)."""
        conn = self._connect()
        try:
            rows = conn.execute(
                "SELECT job_id FROM jobs WHERE result_schema = ?"
                " AND fingerprint = ? ORDER BY created_at DESC"
                " LIMIT ?",
                (*self._address(), limit),
            ).fetchall()
        finally:
            conn.close()
        summaries = []
        for (job_id,) in rows:
            status = self.job_status(job_id)
            if status is not None:
                status.pop("results", None)
                status.pop("errors", None)
                status.pop("keys", None)
                status.pop("task_errors", None)
                summaries.append(status)
        return summaries

    def depth(self) -> int:
        """Outstanding work: tasks pending or running (load shedding)."""
        conn = self._connect()
        try:
            return conn.execute(
                "SELECT COUNT(*) FROM tasks WHERE result_schema = ?"
                " AND fingerprint = ? AND state IN (?, ?)",
                (*self._address(), PENDING, RUNNING),
            ).fetchone()[0]
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        """Queue shape as one JSON-able dict (healthz / diagnostics)."""
        conn = self._connect()
        try:
            by_state = dict(conn.execute(
                "SELECT state, COUNT(*) FROM tasks"
                " WHERE result_schema = ? AND fingerprint = ?"
                " GROUP BY state",
                self._address(),
            ).fetchall())
            jobs = conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE result_schema = ?"
                " AND fingerprint = ?",
                self._address(),
            ).fetchone()[0]
        finally:
            conn.close()
        return {
            "path": str(self.path),
            "jobs": jobs,
            "tasks": {
                state: by_state.get(state, 0)
                for state in (PENDING, RUNNING, DONE, FAILED)
            },
        }

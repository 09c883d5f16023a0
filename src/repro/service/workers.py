"""Supervised worker subprocesses for the evaluation service.

Simulation moves off the HTTP request thread: every task claimed from
the :class:`~repro.service.jobs.JobQueue` is evaluated in a **fresh
subprocess** supervised by a pool thread.  The subprocess is the
isolation boundary the request thread never had —

* a **hung** simulation is killed at the per-task wall-clock timeout,
* a **crashed** worker (segfault, ``os._exit``, OOM kill) is detected
  by its exit code,

and in both cases the supervisor just fails the task back to the
queue, which retries it with backoff or dead-letters it.  The parent
process performs no simulation and no store writes in-request;
completed results are written through to the result store
best-effort (a broken store degrades to a logged warning — the
simulation already succeeded and the queue holds the result).

Fault injection (``$REPRO_FAULTS``, see :mod:`repro.testing.faults`)
hooks the subprocess entry: ``worker_crash`` exits hard before
simulating, ``worker_hang`` sleeps past any sane timeout.  The chaos
suite uses these to prove a batch completes byte-identically through
crashes and timeouts.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Optional

from repro.api.parallel import resolve_worker_count, warm_trace_cache
from repro.api.spec import RunSpec
from repro.telemetry import metrics as telemetry
from repro.testing import faults

from repro.service.jobs import JobQueue

#: How long a stopped/hung subprocess gets between SIGTERM and SIGKILL.
_KILL_GRACE = 5.0


def _subprocess_entry(spec_jsons, pipe) -> None:
    """Worker subprocess body: a task group in, result JSONs out.

    Runs with ``use_cache=False`` semantics — the subprocess touches
    neither the in-memory result cache nor the store; persistence is
    the supervisor's job.  A multi-spec group (same workload, fast
    engine, grouped by :meth:`JobQueue.claim_group`) goes through
    ``evaluate_many``, whose replay planner runs the shared workload
    in a single pass.  Fault hooks fire once per subprocess, *before*
    the simulation, so an injected crash never wastes completed
    results.

    The reply is a dict — ``{"results": [...]}`` on success,
    ``{"error": ...}`` on failure — and either shape carries a
    ``"metrics"`` registry snapshot, which the supervisor merges into
    the parent registry: ``/v1/metrics`` reports simulations and
    replay traffic performed by every worker the service ever
    spawned, not just the parent process's.
    """
    # A forked child inherits the parent's registry; drop it so the
    # snapshot shipped back is this worker's own traffic, not a second
    # copy of everything the parent had already counted.
    telemetry.registry().reset()
    try:
        if faults.should_fire("worker_crash"):
            os._exit(3)
        if faults.should_fire("worker_hang"):
            time.sleep(3600.0)
        from repro.api.evaluate import evaluate_many

        results = evaluate_many(
            [RunSpec.from_json(payload) for payload in spec_jsons],
            workers=1,
            use_cache=False,
        )
        pipe.send({
            "results": [result.to_json() for result in results],
            "metrics": telemetry.snapshot(),
        })
    except Exception as exc:   # noqa: BLE001 — report, don't hang
        pipe.send({
            "error": f"{type(exc).__name__}: {exc}",
            "metrics": telemetry.snapshot(),
        })
    finally:
        pipe.close()


class WorkerPool:
    """N supervisor threads, each running one subprocess at a time."""

    def __init__(
        self,
        queue: JobQueue,
        count: Optional[int] = None,
        task_timeout: float = 300.0,
        lease_seconds: Optional[float] = None,
        poll_interval: float = 0.2,
        on_result=None,
        group_limit: int = 8,
    ):
        self.queue = queue
        self.count = resolve_worker_count(count)
        self.task_timeout = task_timeout
        #: Max tasks claimed as one shared-workload replay group (one
        #: fatter subprocess instead of N).
        self.group_limit = max(1, group_limit)
        #: The lease must outlive a full attempt (timeout + kill
        #: grace), or a *live* worker's task would be double-claimed.
        self.lease_seconds = (
            lease_seconds
            if lease_seconds is not None
            else task_timeout + _KILL_GRACE + 30.0
        )
        self.poll_interval = poll_interval
        #: Called with each completed RunResult JSON (the server uses
        #: this to write results through to the store).
        self.on_result = on_result
        self._threads: list = []
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._idle = threading.Semaphore(0)
        self._context = multiprocessing.get_context()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.count):
            thread = threading.Thread(
                target=self._supervise,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, drain: bool = False, timeout: float = 60.0) -> None:
        """Stop the pool.

        ``drain=True`` first stops claiming *new* tasks and waits (up
        to ``timeout``) for running attempts to finish — the SIGTERM
        path.  ``drain=False`` abandons running subprocesses' results:
        their leased tasks return to the queue on recovery/expiry,
        which is exactly the crash the queue is built to survive.
        """
        if drain:
            self._draining.set()
            deadline = time.time() + timeout
            for thread in self._threads:
                thread.join(max(0.0, deadline - time.time()))
        self._stop.set()
        self.queue.work_available.set()
        for thread in self._threads:
            thread.join(self.poll_interval + _KILL_GRACE)
        self._threads = []
        self._draining.clear()

    # -- supervision ---------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            if self._draining.is_set():
                return
            tasks = self.queue.claim_group(
                self.lease_seconds, self.group_limit
            )
            if not tasks:
                if self._draining.is_set():
                    return
                self.queue.work_available.clear()
                self.queue.work_available.wait(self.poll_interval)
                continue
            try:
                self._run_group(tasks)
            except Exception as exc:   # noqa: BLE001 — keep the pool up
                for task in tasks:
                    self.queue.fail(
                        task, f"supervisor error: "
                              f"{type(exc).__name__}: {exc}"
                    )

    def _run_group(self, tasks) -> None:
        specs = [task.spec for task in tasks]
        # Warm the trace cache in the parent so the (forked) child
        # loads arrays instead of running the ISS; a second worker on
        # the same workload reuses the parent's in-process cache.
        workloads = tuple(dict.fromkeys(
            spec.workload for spec in specs if not spec.is_synthetic
        ))
        if workloads:
            warm_trace_cache(workloads)
        receiver, sender = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_subprocess_entry,
            args=(tuple(task.spec_key for task in tasks), sender),
            daemon=True,
        )
        started = time.monotonic()
        process.start()
        sender.close()
        telemetry.counter(
            "repro_pool_spawns_total",
            "Worker subprocesses spawned by the pool.",
        ).inc()
        process.join(self.task_timeout)
        if process.is_alive():
            self._kill(process)
            receiver.close()
            telemetry.counter(
                "repro_pool_timeouts_total",
                "Worker subprocesses killed at the task timeout.",
            ).inc()
            for task in tasks:
                self.queue.fail(
                    task,
                    f"worker timed out after {self.task_timeout:g}s "
                    f"(attempt {task.attempts})",
                )
            return
        telemetry.histogram(
            "repro_pool_task_seconds",
            "Wall-clock per worker-subprocess task group.",
        ).observe(time.monotonic() - started)
        payload = None
        if receiver.poll():
            try:
                payload = receiver.recv()
            except (EOFError, OSError):
                payload = None
        receiver.close()
        if isinstance(payload, dict):
            # Fold the child's registry into ours before anything
            # else: failed attempts report their traffic too.
            telemetry.merge_snapshot(payload.get("metrics"))
        results = (
            payload.get("results") if isinstance(payload, dict)
            else payload   # pre-metrics shape: a bare result list
        )
        if isinstance(results, list) and len(results) == len(tasks):
            # One result JSON per task, in claim order: complete each
            # — per-task durability is unchanged by the grouping.
            for task, result_json in zip(tasks, results):
                self.queue.complete(task, result_json)
                if self.on_result is not None:
                    self.on_result(result_json)
            return
        if isinstance(payload, dict) and "error" in payload:
            message = payload.get("error") or "unknown worker error"
            for task in tasks:
                self.queue.fail(task, message)
            return
        telemetry.counter(
            "repro_pool_crashes_total",
            "Worker subprocesses that died without reporting.",
        ).inc()
        for task in tasks:
            self.queue.fail(
                task,
                f"worker crashed with exit code {process.exitcode} "
                f"(attempt {task.attempts})",
            )

    @staticmethod
    def _kill(process) -> None:
        process.terminate()
        process.join(_KILL_GRACE)
        if process.is_alive():
            process.kill()
            process.join(_KILL_GRACE)

    # -- diagnostics ---------------------------------------------------

    def describe(self) -> dict:
        return {
            "workers": self.count,
            "task_timeout": self.task_timeout,
            "lease_seconds": self.lease_seconds,
            "alive": sum(1 for t in self._threads if t.is_alive()),
            "draining": self._draining.is_set(),
        }


def log_store_warning(exc: Exception) -> None:
    """Uniform store-degradation warning (parent-side writes).

    Delegates to the evaluate-layer warner, which rate-limits to one
    line per process per distinct failure message.
    """
    from repro.api.evaluate import _warn_store_unavailable

    _warn_store_unavailable(exc)

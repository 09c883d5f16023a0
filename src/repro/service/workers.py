"""Supervised worker subprocesses for the evaluation service.

Simulation moves off the HTTP request thread: a pool thread claims
work from the :class:`~repro.service.jobs.JobQueue` and evaluates it
in a **fresh subprocess** it supervises.  The subprocess is the
isolation boundary the request thread never had —

* a **hung** simulation is killed at the wall-clock timeout,
* a **crashed** worker (segfault, ``os._exit``, OOM kill) is detected
  by its exit code,

and in both cases the supervisor just fails the claim's unfinished
tasks back to the queue, which retries them with backoff or
dead-letters them.

One subprocess serves one claim, not one task:
:meth:`JobQueue.claim_group` hands a pool of P workers a guided share
of whole replay groups (⌈R/P⌉ of the R runnable tasks), so a
one-worker server forks once per batch.  The child evaluates the claim
one replay group at a time and pipes each group's results back as soon
as it finishes; the supervisor reads the pipe while the child runs and
records every group as it arrives — one :meth:`JobQueue.complete`
transaction, then one ``on_result`` call, which the server turns into
one best-effort result-store ``put_many`` (a broken store degrades to
a logged warning: the simulation already succeeded and the queue
holds the result).  Waiting jobs see progress group by group, and a
crash, timeout or error fails only the tasks still pending.  The
parent process performs no simulation.

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
from typing import Dict, Optional

# The evaluation stack, controllers included, loads with the server
# rather than per batch: every forked worker inherits it.
import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.api.evaluate import _evaluate_task, _warn_store_unavailable
from repro.api.parallel import resolve_worker_count, warm_trace_cache
from repro.api.spec import RunSpec
from repro.replay.engine import plan_groups
from repro.telemetry import metrics as telemetry
from repro.testing import faults

from repro.service.jobs import JobQueue, Task

#: How long a stopped/hung subprocess gets between SIGTERM and SIGKILL.
_KILL_GRACE = 5.0

#: glibc ``mallopt`` parameters (``<malloc.h>``) and the worker's values.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20


def _pin_heap() -> None:
    """Keep a worker's freed memory in its heap until it exits.

    A worker lives for one claim.  Under glibc's defaults each replay
    group's large NumPy temporaries are mapped and unmapped, or trimmed
    off the heap top, when freed, and the next group faults the same
    pages back in, zero-filled by the kernel.  Serving every block
    below 32 MiB from the heap and trimming only past 1 GiB lets later
    groups reuse those pages; they return to the system when the worker
    exits.  Where the C library has no ``mallopt`` (macOS, other libcs)
    this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _subprocess_entry(spec_jsons, pipe) -> None:
    """Worker subprocess body: one claim in, one reply per replay group.

    Runs with ``use_cache=False`` semantics — the subprocess touches
    neither the in-memory result cache nor the store; persistence is
    the supervisor's job.  The claim is planned with
    :func:`~repro.replay.engine.plan_groups`, exactly as
    ``evaluate_many`` plans a batch, and each replay group goes
    through ``_evaluate_task``, which replays its shared workload in a
    single pass.  Fault hooks fire once per subprocess, *before* the
    first simulation, so an injected crash never wastes completed
    results.

    Every finished group is sent at once as ``{"indices": [...],
    "results": [...]}`` — positions in ``spec_jsons`` and their result
    JSONs — so the supervisor records it while later groups still
    run.  The last reply also carries ``"metrics"``, this worker's
    registry snapshot, which the supervisor merges into the parent
    registry before recording that group: ``/v1/metrics`` reports
    simulations and replay traffic performed by every worker the
    service ever spawned, not just the parent process's.  A failure
    ends the stream with ``{"error": ..., "metrics": ...}``.
    """
    _pin_heap()
    # A forked child inherits the parent's registry; drop it so the
    # snapshot shipped back is this worker's own traffic, not a second
    # copy of everything the parent had already counted.
    telemetry.registry().reset()
    try:
        if faults.should_fire("worker_crash"):
            os._exit(3)
        if faults.should_fire("worker_hang"):
            time.sleep(3600.0)
        specs = [RunSpec.from_json(payload) for payload in spec_jsons]
        position = {id(spec): index for index, spec in enumerate(specs)}
        groups = plan_groups(specs)
        for number, group in enumerate(groups, 1):
            results = _evaluate_task(tuple(spec.to_json() for spec in group))
            reply = {
                "indices": [position[id(spec)] for spec in group],
                "results": [result.to_json() for result in results],
            }
            if number == len(groups):
                reply["metrics"] = telemetry.snapshot()
            pipe.send(reply)
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
    ):
        self.queue = queue
        self.count = resolve_worker_count(count)
        #: Wall-clock budget of one subprocess, i.e. one claim.
        self.task_timeout = task_timeout
        #: The lease must outlive a full attempt (timeout + kill
        #: grace), or a *live* worker's task would be double-claimed.
        self.lease_seconds = (
            lease_seconds
            if lease_seconds is not None
            else task_timeout + _KILL_GRACE + 30.0
        )
        self.poll_interval = poll_interval
        #: Called with each recorded replay group's result JSONs (the
        #: server uses this to write them through to the store).
        self.on_result = on_result
        self._threads: list = []
        self._stop = threading.Event()
        self._draining = threading.Event()
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
            tasks = self.queue.claim_group(self.lease_seconds, self.count)
            if not tasks:
                if self._draining.is_set():
                    return
                self.queue.work_available.clear()
                self.queue.work_available.wait(self.poll_interval)
                continue
            pending = dict(enumerate(tasks))
            try:
                self._run_claim(tasks, pending)
            except Exception as exc:   # noqa: BLE001 — keep the pool up
                self._fail(
                    pending, f"supervisor error: {type(exc).__name__}: {exc}"
                )

    def _run_claim(self, tasks, pending: Dict[int, Task]) -> None:
        """Run one claim in a subprocess, recording each replay group
        as its reply arrives; ``pending`` (claim position -> task)
        keeps the tasks not yet recorded."""
        # Warm the trace cache in the parent so the (forked) child
        # loads arrays instead of running the ISS; a later claim on
        # the same workload reuses the parent's in-process cache.
        specs = [task.spec for task in tasks]
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
        deadline = started + self.task_timeout
        try:
            final = self._read_replies(receiver, process, pending, deadline)
        finally:
            receiver.close()
        if final is not None:
            process.join(_KILL_GRACE)
            if process.is_alive():
                self._kill(process)
            telemetry.histogram(
                "repro_pool_task_seconds",
                "Wall-clock per worker subprocess (one claim).",
            ).observe(time.monotonic() - started)
            self._fail(
                pending, final.get("error") or "worker returned no result"
            )
            return
        if time.monotonic() < deadline:
            # The stream ended early: give the dying child time to exit.
            process.join(_KILL_GRACE)
        if process.is_alive():
            self._kill(process)
            telemetry.counter(
                "repro_pool_timeouts_total",
                "Worker subprocesses killed at the task timeout.",
            ).inc()
            self._fail(
                pending, f"worker timed out after {self.task_timeout:g}s"
            )
            return
        telemetry.counter(
            "repro_pool_crashes_total",
            "Worker subprocesses that died without reporting.",
        ).inc()
        self._fail(
            pending, f"worker crashed with exit code {process.exitcode}"
        )

    def _read_replies(
        self, receiver, process, pending: Dict[int, Task], deadline: float
    ) -> Optional[dict]:
        """Record each replay group as its reply arrives.

        Reads while the child runs — a claim's replies can outgrow the
        pipe buffer — and returns the final reply (the one carrying
        the metrics snapshot), or None when the stream ends without
        it: the child died or the deadline passed.
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if not receiver.poll(min(remaining, self.poll_interval)):
                # A sibling's fork may hold this pipe open past the
                # child's death, so ask the child itself too.
                if process.is_alive() or receiver.poll(0):
                    continue
                return None
            try:
                reply = receiver.recv()
            except (EOFError, OSError):
                return None
            # Fold the child's registry into ours before recording its
            # last group: a settled job's metrics are complete, and a
            # failed attempt reports its traffic too.
            telemetry.merge_snapshot(reply.get("metrics"))
            if "results" in reply:
                self._record(pending, reply["indices"], reply["results"])
            if "metrics" in reply:
                return reply

    def _record(self, pending: Dict[int, Task], indices, results) -> None:
        """One replay group: one queue transaction, then one
        ``on_result`` call."""
        tasks = [pending[index] for index in indices]
        self.queue.complete(tasks, results)
        for index in indices:
            del pending[index]
        if self.on_result is not None:
            self.on_result(results)

    def _fail(self, pending: Dict[int, Task], reason: str) -> None:
        """Fail every task still pending in a claim."""
        for task in pending.values():
            self.queue.fail(task, f"{reason} (attempt {task.attempts})")

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
    _warn_store_unavailable(exc)

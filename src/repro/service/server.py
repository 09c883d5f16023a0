"""HTTP batch-evaluation service on top of the RunSpec layer.

A zero-dependency (stdlib ``http.server``) front-end that turns this
repository into "many users, one simulator": every request body is the
same declarative JSON the library and ``repro eval`` speak, every
response is the same schema-versioned ``RunResult`` document, and
every answer is **byte-identical** to an in-process evaluation of the
same specs (``python -m repro.api.determinism_check`` proves it on
every CI run — including under injected faults).

Fault tolerance (the part the request thread never had): evaluation
happens in supervised worker subprocesses fed by a **durable SQLite
job queue** (:mod:`repro.service.jobs`, :mod:`repro.service.workers`).
A hung simulation is killed at its wall-clock timeout, a crashed
worker's lease expires and the task is retried with capped
exponential backoff, jobs survive server restarts, and identical
in-flight specs are coalesced into one simulation.  When the queue is
deep the service load-sheds with ``503`` + ``Retry-After`` instead of
queueing without bound, and a failing result store degrades to
store-less evaluation with a logged warning, never a 500.

Routes (all JSON):

* ``GET  /v1/healthz``       — liveness + fingerprint/schemas + queue
  depth/limit, store availability (including read-only and
  store-unavailable degradation), uptime
* ``GET  /v1/metrics``       — Prometheus text exposition: the
  process metrics registry (merged across worker subprocesses) plus
  live queue/store/pool gauges
* ``GET  /v1/reports/``      — the experiment analytics dashboard
  (HTML; per-experiment tables from the store, BENCH_history trend
  chart, store/queue/worker stats)
* ``GET  /v1/architectures`` — the central registry (ids, defaults),
  benchmarks, engines, technologies
* ``GET  /v1/experiments``   — the experiment registry
* ``GET  /v1/store/stats``   — persistent-store shape and traffic
* ``GET  /v1/jobs``          — newest-first job summaries
* ``GET  /v1/jobs/{id}``     — one job: progress + partial results
* ``POST /v1/eval``          — one ``RunSpec`` object → one result
* ``POST /v1/batch``         — ``{"specs": [...]}`` → results in
  input order; with ``"mode": "async"`` → ``202`` + a job id to poll
* ``POST /v1/experiments/{name}`` — evaluate one registered
  experiment's declared design points server-side → results keyed by
  canonical spec JSON; the client tabulates locally

Run it with ``repro serve`` (see :mod:`repro.cli`); talk to it with
:mod:`repro.service.client`, ``repro submit`` or plain ``curl``.
"""

from __future__ import annotations

import json
import signal
import sqlite3
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.api import (
    ENGINES,
    RESULT_SCHEMA_VERSION,
    SPEC_SCHEMA_VERSION,
    TECHNOLOGIES,
    RunSpec,
)
from repro.experiments.registry import (
    catalog_experiments,
    experiment_catalog,
    get_experiment,
)
from repro.store import code_fingerprint, default_store, store_path
from repro.telemetry import metrics as telemetry
from repro.testing import faults
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.suite import SCALABLE_BENCHMARKS

from repro.service import DEFAULT_HOST, DEFAULT_PORT
from repro.service.jobs import DONE, FAILED, JobQueue, job_db_path
from repro.service.workers import WorkerPool, log_store_warning

#: Hard cap on request bodies (a full-grid sweep batch is ~100 KiB).
MAX_BODY_BYTES = 32 << 20

#: Above this many outstanding tasks the service load-sheds new
#: submissions with 503 + Retry-After instead of queueing unboundedly.
DEFAULT_QUEUE_LIMIT = 1024

#: What a load-shedding 503 tells well-behaved clients to wait.
RETRY_AFTER_SECONDS = 2

#: Per-task wall-clock budget before a worker subprocess is killed.
DEFAULT_TASK_TIMEOUT = 300.0


def _registry_payload() -> Dict[str, Any]:
    """The central registry as one JSON document (``/v1/architectures``)."""
    from repro.api import architectures

    listing: Dict[str, List[Dict[str, Any]]] = {}
    for side in ("dcache", "icache"):
        listing[side] = [
            {
                "id": info.id,
                "description": info.description,
                "defaults": dict(info.defaults),
                "uses_mab": info.uses_mab,
                "parametric": info.parametric,
            }
            for info in architectures(side)
        ]
    return {
        "spec_version": SPEC_SCHEMA_VERSION,
        "architectures": listing,
        "benchmarks": list(BENCHMARK_NAMES),
        "scalable_benchmarks": list(SCALABLE_BENCHMARKS),
        "engines": list(ENGINES),
        "technologies": sorted(TECHNOLOGIES),
    }


def _parse_specs(items: List[Any]) -> List[RunSpec]:
    if not all(isinstance(item, dict) for item in items):
        raise ValueError("specs must be JSON objects")
    return [RunSpec.from_dict(item) for item in items]


def _experiments_payload() -> Dict[str, Any]:
    """The experiment registry as one JSON document
    (``/v1/experiments``)."""
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "experiments": [
            {
                "name": experiment.name,
                "title": experiment.title,
                "paper_reference": experiment.paper_reference,
                "category": experiment.category,
                "spec_count": len(experiment.specs()),
            }
            for experiment in catalog_experiments()
        ],
    }


class ServiceHandler(BaseHTTPRequestHandler):
    """One request: decode JSON, dispatch, encode JSON."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                "%s - %s\n" % (self.client_address[0], format % args)
            )

    def _send_json(
        self, status: int, payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_json(status, {"error": message}, headers)

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # The unread body would be parsed as the next request on
            # this keep-alive connection; drop the connection instead.
            self.close_connection = True
            self._send_error_json(
                413, f"request body over {MAX_BODY_BYTES} bytes"
            )
            return None
        return self.rfile.read(length)

    def _send_text(
        self, status: int, body: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    # -- GET routes ----------------------------------------------------

    def _healthz_payload(self) -> Dict[str, Any]:
        """The enriched health document — degraded states included.

        ``status`` is ``"ok"`` only when the service would accept and
        fully serve a submission right now; ``"degraded"`` names the
        reasons in ``degraded``: draining, a full queue, a configured
        store that cannot be opened, or a read-only store.  A healthy
        startup reports ``"ok"``, which is what ``wait_until_ready``
        keys on.
        """
        store = default_store()
        configured = store_path() is not None
        read_only = bool(store is not None and store.read_only)
        depth = self.server.queue.depth()
        reasons = []
        if self.server.draining:
            reasons.append("draining")
        if depth >= self.server.queue_limit:
            reasons.append("queue_full")
        if configured and store is None:
            reasons.append("store_unavailable")
        if read_only:
            reasons.append("store_read_only")
        return {
            "status": "degraded" if reasons else "ok",
            "degraded": reasons,
            "fingerprint": code_fingerprint(),
            "spec_version": SPEC_SCHEMA_VERSION,
            "result_schema": RESULT_SCHEMA_VERSION,
            "store": store is not None,
            "store_configured": configured,
            "read_only": read_only,
            "draining": self.server.draining,
            "queue": self.server.queue.stats()["tasks"],
            "queue_depth": depth,
            "queue_limit": self.server.queue_limit,
            "uptime_seconds": round(
                time.monotonic() - self.server.started_monotonic, 3
            ),
            "pool": self.server.pool.describe(),
        }

    def _metrics_text(self) -> str:
        """Prometheus exposition: the merged registry plus live gauges.

        Counters/histograms come from the process registry (including
        everything merged back from worker subprocesses); queue/store/
        pool shape is read at scrape time — cheaper and always current.
        """
        extra = [
            ("repro_service_uptime_seconds", "gauge",
             "Seconds since the server started.",
             time.monotonic() - self.server.started_monotonic, None),
            ("repro_queue_depth", "gauge",
             "Outstanding tasks (pending + running).",
             self.server.queue.depth(), None),
            ("repro_queue_limit", "gauge",
             "Load-shedding threshold for outstanding tasks.",
             self.server.queue_limit, None),
            ("repro_pool_workers", "gauge",
             "Supervisor threads in the worker pool.",
             self.server.pool.count, None),
            ("repro_pool_alive", "gauge",
             "Supervisor threads currently alive.",
             self.server.pool.describe()["alive"], None),
        ]
        queue_stats = self.server.queue.stats()
        for state, count in queue_stats["tasks"].items():
            extra.append((
                "repro_queue_tasks", "gauge",
                "Queue tasks by state.", count, {"state": state},
            ))
        store = default_store()
        if store is not None:
            try:
                stats = store.stats()
            except (sqlite3.Error, OSError):
                stats = {}
            for key, metric in (
                ("entries", "repro_store_entries"),
                ("entries_current_code",
                 "repro_store_entries_current_code"),
                ("file_bytes", "repro_store_file_bytes"),
            ):
                if key in stats:
                    extra.append((
                        metric, "gauge",
                        f"Result store {key.replace('_', ' ')}.",
                        stats[key], None,
                    ))
            for key in ("hits", "misses", "puts", "evictions",
                        "quarantines"):
                value = stats.get(f"lifetime_{key}")
                if value is not None:
                    extra.append((
                        f"repro_store_lifetime_{key}_total",
                        "counter",
                        f"Lifetime store {key} across all processes.",
                        value, None,
                    ))
        return telemetry.render_prometheus(extra)

    def _dashboard_html(self) -> str:
        from repro.telemetry.dashboard import render_dashboard

        return render_dashboard(
            store=default_store(),
            queue_stats=self.server.queue.stats()["tasks"],
            pool_stats=self.server.pool.describe(),
            service_info={
                "fingerprint": code_fingerprint(),
                "result_schema": RESULT_SCHEMA_VERSION,
                "uptime_seconds": round(
                    time.monotonic() - self.server.started_monotonic, 1
                ),
                "draining": self.server.draining,
            },
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/v1/healthz":
            self._send_json(200, self._healthz_payload())
        elif self.path == "/v1/metrics":
            self._send_text(
                200, self._metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path in ("/v1/reports", "/v1/reports/"):
            self._send_text(
                200, self._dashboard_html(),
                "text/html; charset=utf-8",
            )
        elif self.path == "/v1/architectures":
            self._send_json(200, _registry_payload())
        elif self.path == "/v1/experiments":
            self._send_json(200, _experiments_payload())
        elif self.path == "/v1/store/stats":
            store = default_store()
            if store is None:
                self._send_json(200, {"enabled": False})
            else:
                self._send_json(200, {"enabled": True, **store.stats()})
        elif self.path == "/v1/jobs":
            self._send_json(200, {
                "jobs": self.server.queue.list_jobs(),
                "queue": self.server.queue.stats(),
            })
        elif self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            status = self.server.queue.job_status(job_id)
            if status is None:
                self._send_error_json(
                    404, f"unknown job {job_id!r}"
                )
            else:
                self._send_json(200, status)
        else:
            self._send_error_json(404, f"unknown route {self.path!r}")

    # -- POST routes ---------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if faults.should_fire("http_error"):
            self._send_error_json(
                500, "injected fault: http_error"
            )
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            self._send_error_json(400, f"invalid JSON: {exc}")
            return
        if self.path == "/v1/eval":
            self._handle_eval(payload)
        elif self.path == "/v1/batch":
            self._handle_batch(payload)
        elif self.path.startswith("/v1/experiments/"):
            name = self.path[len("/v1/experiments/"):]
            self._handle_experiment(name, payload)
        else:
            self._send_error_json(404, f"unknown route {self.path!r}")

    def _parse_workers(self, payload: Dict[str, Any]) -> Optional[int]:
        """Validate the request's ``workers`` field (kept for wire
        compatibility; concurrency is owned by the server's worker
        pool now, so the value is advisory and unused).

        Raises ``ValueError`` (for a 400) on non-integer values.
        """
        workers = payload.get("workers")
        if workers is not None and not isinstance(workers, int):
            raise ValueError("workers must be an integer")
        return workers

    def _refuse_fingerprint_skew(self, payload: Dict[str, Any]) -> bool:
        """409 a mismatched client fingerprint claim BEFORE evaluating.

        The claim is optional (raw spec batches from `repro submit`
        are version-agnostic by design), but when a client sends one
        — the byte-identity paths do — skew is refused atomically
        with the evaluation, with no wasted computation.  Returns
        True when the request was answered.
        """
        claimed = payload.get("fingerprint")
        if claimed is not None and claimed != code_fingerprint():
            self._send_error_json(
                409,
                f"server runs code fingerprint {code_fingerprint()}, "
                f"client runs {claimed}; remote results would not be "
                "byte-identical — update one side",
            )
            return True
        return False

    def _refuse_overload(self) -> bool:
        """503 + Retry-After when draining or the queue is deep.

        Load shedding at admission keeps every accepted job's latency
        bounded; a well-behaved client (ours does) honors Retry-After
        and resubmits.  Returns True when the request was answered.
        """
        if self.server.draining:
            self._send_error_json(
                503, "server is draining for shutdown",
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return True
        if self.server.queue.depth() >= self.server.queue_limit:
            self._send_error_json(
                503,
                f"queue is full ({self.server.queue_limit} "
                "outstanding tasks); retry later",
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return True
        return False

    def _submit_job(self, specs: List[RunSpec]) -> str:
        """Enqueue one job, pre-filling store hits (no worker runs for
        an already-answered question).  A failing store degrades to
        enqueueing everything — a logged warning, never an error."""
        prefilled: Dict[str, str] = {}
        store = default_store()
        if store is not None:
            try:
                found = store.get_many(specs)
                prefilled = {
                    key: result.to_json()
                    for key, result in found.items()
                }
            except (sqlite3.Error, OSError) as exc:
                log_store_warning(exc)
        return self.server.queue.submit(specs, prefilled=prefilled)

    def _evaluate_sync(
        self, specs: List[RunSpec]
    ) -> Optional[List[Dict[str, Any]]]:
        """Evaluate ``specs`` through the queue + worker pool, blocking
        until the job settles.  Returns result documents in input
        order, or None after answering an error response."""
        job_id = self._submit_job(specs)
        status = self.server.queue.wait_job(job_id)
        if status is None:
            self._send_error_json(
                500, f"job {job_id} vanished from the queue"
            )
            return None
        if status["state"] != DONE:
            errors = "; ".join(
                f"{key}: {message}"
                for key, message in sorted(status["errors"].items())
            ) or "unknown failure"
            self._send_error_json(
                500, f"evaluation failed: {errors}"
            )
            return None
        results = status["results"]
        return [results[key] for key in status["keys"]]

    def _handle_eval(self, payload: Any) -> None:
        if not isinstance(payload, dict):
            self._send_error_json(400, "expected one RunSpec object")
            return
        try:
            (spec,) = _parse_specs([payload])
        except (KeyError, ValueError, TypeError) as exc:
            self._send_error_json(400, f"invalid spec: {exc}")
            return
        if self._refuse_overload():
            return
        documents = self._evaluate_sync([spec])
        if documents is not None:
            self._send_json(200, documents[0])

    def _handle_batch(self, payload: Any) -> None:
        if isinstance(payload, list):
            payload = {"specs": payload}
        if not isinstance(payload, dict) or not isinstance(
            payload.get("specs"), list
        ):
            self._send_error_json(
                400, 'expected {"specs": [...], "mode": "async"?} '
                     "or a bare spec array"
            )
            return
        mode = payload.get("mode", "sync")
        if mode not in ("sync", "async"):
            self._send_error_json(
                400, f"mode must be 'sync' or 'async', got {mode!r}"
            )
            return
        try:
            self._parse_workers(payload)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        if self._refuse_fingerprint_skew(payload):
            return
        try:
            specs = _parse_specs(payload["specs"])
        except (KeyError, ValueError, TypeError) as exc:
            self._send_error_json(400, f"invalid spec: {exc}")
            return
        if self._refuse_overload():
            return
        if mode == "async":
            job_id = self._submit_job(specs)
            status = self.server.queue.job_status(job_id) or {}
            self._send_json(202, {
                "job_id": job_id,
                "state": status.get("state", "pending"),
                "total": status.get("total", 0),
                "done": status.get("done", 0),
            })
            return
        documents = self._evaluate_sync(specs)
        if documents is None:
            return
        self._send_json(200, {
            "schema_version": RESULT_SCHEMA_VERSION,
            "count": len(documents),
            "results": documents,
        })

    def _handle_experiment(self, name: str, payload: Any) -> None:
        """Evaluate one registered experiment's declared specs.

        The response carries raw results keyed by canonical spec JSON
        — exactly the mapping the experiment's pure ``tabulate``
        consumes — so any client renders the finished table locally,
        byte-identical to an in-process run.  The code fingerprint is
        included so clients can refuse version-skewed servers (stale
        numbers would otherwise render with exit code 0).
        """
        if name not in experiment_catalog():
            self._send_error_json(
                404, f"unknown experiment {name!r}; "
                     f"available: {list(experiment_catalog())}"
            )
            return
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            self._send_error_json(
                400, 'expected {"workers": N?} or an empty body'
            )
            return
        try:
            self._parse_workers(payload)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        if self._refuse_fingerprint_skew(payload):
            return
        if self._refuse_overload():
            return
        experiment = get_experiment(name)
        specs = experiment.specs()
        documents = self._evaluate_sync(specs)
        if documents is None:
            return
        self._send_json(200, {
            "name": experiment.name,
            "title": experiment.title,
            "schema_version": RESULT_SCHEMA_VERSION,
            "fingerprint": code_fingerprint(),
            "count": len(documents),
            "results": {
                spec.key(): document
                for spec, document in zip(specs, documents)
            },
        })


class EvaluationServer(ThreadingHTTPServer):
    """Threaded HTTP front-end over a durable queue + worker pool."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        default_workers: Optional[int] = None,
        verbose: bool = False,
        job_db: Optional[str] = None,
        task_timeout: float = DEFAULT_TASK_TIMEOUT,
        lease_seconds: Optional[float] = None,
        max_attempts: int = 3,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ):
        super().__init__(address, ServiceHandler)
        self.verbose = verbose
        self.queue_limit = queue_limit
        self.started_monotonic = time.monotonic()
        #: True once a SIGTERM drain started: submissions are refused
        #: (503), running work finishes, then the server exits.
        self.draining = False
        self.queue = JobQueue(
            job_db if job_db is not None else job_db_path(),
            max_attempts=max_attempts,
        )
        # Any lease in the file belongs to a dead predecessor —
        # single-node queue — so restart recovery is immediate.
        requeued = self.queue.recover()
        if requeued and verbose:
            sys.stderr.write(
                f"recovered {requeued} leased task(s) from a "
                "previous server\n"
            )
        self.pool = WorkerPool(
            self.queue,
            count=default_workers,
            task_timeout=task_timeout,
            lease_seconds=lease_seconds,
            on_result=self._persist_results,
        )
        self.pool.start()

    def _persist_results(self, result_jsons: List[str]) -> None:
        """Write one completed replay group through to the store in
        one ``put_many`` (best-effort: the queue already holds the
        bytes)."""
        from repro.api.result import RunResult

        store = default_store()
        if store is None:
            return
        try:
            store.put_many(
                [RunResult.from_json(document) for document in result_jsons]
            )
        except (sqlite3.Error, OSError) as exc:
            log_store_warning(exc)

    def drain(self, timeout: float = 600.0) -> None:
        """Refuse new work, finish running attempts (SIGTERM path)."""
        self.draining = True
        self.pool.stop(drain=True, timeout=timeout)

    def server_close(self) -> None:
        self.pool.stop(drain=False)
        super().server_close()


def create_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: Optional[int] = None,
    verbose: bool = False,
    **config,
) -> EvaluationServer:
    """Bind (``port=0`` picks a free port) without starting to serve.

    ``config`` forwards to :class:`EvaluationServer`: ``job_db``,
    ``task_timeout``, ``lease_seconds``, ``max_attempts``,
    ``queue_limit``.
    """
    return EvaluationServer((host, port), workers, verbose, **config)


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: Optional[int] = None,
    verbose: bool = False,
    port_file: Optional[str] = None,
    **config,
) -> None:
    """Run the service until interrupted (the ``repro serve`` body).

    ``port_file`` gets the bound port written to it once listening —
    how scripts (and the CI smoke job) find a ``--port 0`` service.
    SIGTERM drains: new submissions get 503 + Retry-After, running
    worker attempts finish (their results land in the durable queue
    and the store), then the process exits; pending tasks stay queued
    on disk and the next server picks them up.
    """
    server = create_server(host, port, workers, verbose, **config)
    bound_port = server.server_address[1]
    if port_file:
        with open(port_file, "w") as handle:
            handle.write(f"{bound_port}\n")

    def _drain_and_stop(signum, frame):   # noqa: ARG001 (signal API)
        print("SIGTERM: draining in-flight work before exit",
              flush=True)
        thread = threading.Thread(
            target=lambda: (server.drain(), server.shutdown()),
            daemon=True,
        )
        thread.start()

    previous = signal.signal(signal.SIGTERM, _drain_and_stop)
    print(
        f"repro service listening on http://{host}:{bound_port} "
        f"(fingerprint {code_fingerprint()}, store "
        f"{'on' if default_store() is not None else 'off'}, "
        f"queue {server.queue.path})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()

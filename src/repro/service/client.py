"""Resilient stdlib client for the evaluation service.

Speaks exactly the documents :mod:`repro.service.server` serves:
specs go out as ``RunSpec.to_dict()``, results come back as
schema-versioned ``RunResult`` documents and are re-hydrated through
``RunResult.from_dict`` — so a remote evaluation is interchangeable,
byte for byte, with a local :func:`repro.api.evaluate_many` call.

Every failure surfaces as one exception type, :class:`ServiceError`,
with a ``retryable`` flag instead of a zoo of raw ``urllib`` /
``socket`` exceptions.  Transient failures — dropped connections,
socket timeouts, 5xx responses, load-shedding 503s — are retried
with capped exponential backoff plus jitter, honoring the server's
``Retry-After`` header when it sends one.  Retrying is safe by
construction: every endpoint is deterministic and content-addressed,
so replaying a request can only re-answer the same question.
``wait_job`` keeps polling an async job across transient outages
(including a server restart — jobs are durable), which is what lets
``repro submit/run --url/report --url`` survive a flapping service.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.api.result import RunResult
from repro.api.spec import RunSpec

from repro.service import DEFAULT_HOST, DEFAULT_PORT

SpecLike = Union[RunSpec, Mapping[str, Any]]

#: ``ServiceError.status`` for failures that never got an HTTP status
#: (refused connections, timeouts, resets mid-response).
TRANSPORT_ERROR = 0


class ServiceError(RuntimeError):
    """A failed service interaction (HTTP error or transport fault).

    ``status`` is the HTTP status code, or :data:`TRANSPORT_ERROR`
    (0) when the failure happened below HTTP.  ``retryable`` marks
    faults a retry can plausibly cure (connection errors, timeouts,
    5xx); ``retry_after`` carries the server's ``Retry-After`` hint
    in seconds when one was sent (load-shedding 503s).
    """

    def __init__(
        self,
        status: int,
        message: str,
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ):
        label = "transport error" if status == TRANSPORT_ERROR else status
        super().__init__(f"service returned {label}: {message}")
        self.status = status
        self.message = message
        self.retryable = retryable
        self.retry_after = retry_after


class ServiceHealth(Dict[str, Any]):
    """A typed view over the ``/v1/healthz`` document.

    Still a plain dict (``health["status"]`` keeps working for every
    existing caller), with properties for the degraded-state flags the
    server reports — absent keys read as healthy defaults, so a
    client pointed at an older server degrades gracefully.
    """

    @property
    def ok(self) -> bool:
        return self.get("status") == "ok"

    @property
    def degraded_reasons(self) -> List[str]:
        return list(self.get("degraded") or [])

    @property
    def read_only(self) -> bool:
        return bool(self.get("read_only"))

    @property
    def store_configured(self) -> bool:
        return bool(self.get("store_configured", self.get("store")))

    @property
    def draining(self) -> bool:
        return bool(self.get("draining"))

    @property
    def queue_depth(self) -> int:
        return int(self.get("queue_depth", 0))

    @property
    def queue_limit(self) -> Optional[int]:
        value = self.get("queue_limit")
        return None if value is None else int(value)

    @property
    def uptime_seconds(self) -> Optional[float]:
        value = self.get("uptime_seconds")
        return None if value is None else float(value)


def _spec_dict(spec: SpecLike) -> Dict[str, Any]:
    if isinstance(spec, RunSpec):
        return spec.to_dict()
    return dict(spec)


def _retry_after_seconds(headers) -> Optional[float]:
    value = headers.get("Retry-After") if headers else None
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://host:8323")``.

    ``retries`` bounds how many times a *retryable* failure is
    re-attempted (so a request is sent at most ``retries + 1``
    times); delays grow as ``backoff * 2**attempt`` capped at
    ``backoff_cap``, with up to ``jitter`` fractional randomization
    so a thundering herd of clients spreads out.  ``retries=0``
    restores fail-fast behavior.
    """

    def __init__(
        self,
        base_url: str = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
        timeout: float = 300.0,
        retries: int = 2,
        backoff: float = 0.2,
        backoff_cap: float = 5.0,
        jitter: float = 0.1,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter

    # -- transport -----------------------------------------------------

    def _request_once(
        self, path: str, payload: Optional[Any] = None
    ) -> Any:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except (json.JSONDecodeError, ValueError):
                message = str(exc)
            raise ServiceError(
                exc.code, message,
                retryable=exc.code >= 500 or exc.code == 429,
                retry_after=_retry_after_seconds(exc.headers),
            ) from None
        except urllib.error.URLError as exc:
            # Refused/unreachable, DNS failures, and socket timeouts
            # wrapped by urllib all land here.
            raise ServiceError(
                TRANSPORT_ERROR, str(exc.reason), retryable=True
            ) from None
        except (socket.timeout, TimeoutError, ConnectionError,
                http.client.HTTPException, OSError) as exc:
            # Resets and truncations mid-response bypass URLError.
            raise ServiceError(
                TRANSPORT_ERROR,
                f"{type(exc).__name__}: {exc}",
                retryable=True,
            ) from None
        except json.JSONDecodeError as exc:
            # A truncated/garbled body from a dying server.
            raise ServiceError(
                TRANSPORT_ERROR,
                f"invalid JSON in response: {exc}",
                retryable=True,
            ) from None

    def _retry_delay(self, attempt: int,
                     hint: Optional[float]) -> float:
        delay = min(self.backoff_cap, self.backoff * (2 ** attempt))
        if hint is not None:
            delay = max(delay, hint)
        if self.jitter:
            delay *= 1.0 + random.random() * self.jitter
        return delay

    def _request(
        self, path: str, payload: Optional[Any] = None
    ) -> Any:
        attempt = 0
        while True:
            try:
                return self._request_once(path, payload)
            except ServiceError as exc:
                if not exc.retryable or attempt >= self.retries:
                    raise
                time.sleep(self._retry_delay(attempt, exc.retry_after))
                attempt += 1

    # -- GET endpoints -------------------------------------------------

    def healthz(self) -> ServiceHealth:
        """``GET /v1/healthz`` as a :class:`ServiceHealth` (a dict
        subclass with typed degraded-state properties)."""
        return ServiceHealth(self._request("/v1/healthz"))

    def metrics(self) -> str:
        """``GET /v1/metrics``: raw Prometheus text exposition."""
        url = f"{self.base_url}/v1/metrics"
        request = urllib.request.Request(url)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(
                exc.code, str(exc), retryable=exc.code >= 500
            ) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(
                TRANSPORT_ERROR, str(exc), retryable=True
            ) from None

    def verify_fingerprint(self, remote: Optional[str] = None) -> str:
        """Refuse a version-skewed server (the one defining site).

        A server running different code could answer with numbers
        that differ from a local run — and nothing would look wrong.
        Checks ``remote`` (or ``GET /v1/healthz``'s fingerprint when
        not given) against this client's and raises a 409-coded
        :class:`ServiceError` on mismatch; returns the fingerprint.
        """
        from repro.store import code_fingerprint

        local = code_fingerprint()
        if remote is None:
            remote = self.healthz().get("fingerprint")
        if remote != local:
            raise ServiceError(
                409,
                f"server runs code fingerprint {remote}, this client "
                f"runs {local}; remote results would not be "
                "byte-identical — update one side",
            )
        return local

    def architectures(self) -> Dict[str, Any]:
        return self._request("/v1/architectures")

    def experiments(self) -> List[Dict[str, Any]]:
        """``GET /v1/experiments``: the registered experiment records."""
        return self._request("/v1/experiments")["experiments"]

    def store_stats(self) -> Dict[str, Any]:
        return self._request("/v1/store/stats")

    # -- evaluation ----------------------------------------------------

    def evaluate(self, spec: SpecLike) -> RunResult:
        """``POST /v1/eval``: one spec, one re-hydrated result."""
        return RunResult.from_dict(
            self._request("/v1/eval", _spec_dict(spec))
        )

    def evaluate_many(
        self,
        specs: Sequence[SpecLike],
        claim_fingerprint: bool = False,
    ) -> List[RunResult]:
        """``POST /v1/batch``: results in input order, deduped remotely.

        ``claim_fingerprint`` sends this client's code fingerprint
        with the batch, making the server refuse (409) before it
        parses or queues a spec if it runs different code: the one
        version-skew check a remote batch needs.  Raw spec batches
        (``repro submit``) stay version-agnostic.
        """
        payload = self._batch_payload(specs, claim_fingerprint)
        response = self._request("/v1/batch", payload)
        return [
            RunResult.from_dict(document)
            for document in response["results"]
        ]

    def _batch_payload(
        self, specs: Sequence[SpecLike], claim_fingerprint: bool
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "specs": [_spec_dict(spec) for spec in specs],
        }
        if claim_fingerprint:
            from repro.store import code_fingerprint

            payload["fingerprint"] = code_fingerprint()
        return payload

    # -- async jobs ----------------------------------------------------

    def submit_async(
        self,
        specs: Sequence[SpecLike],
        claim_fingerprint: bool = False,
    ) -> str:
        """``POST /v1/batch`` with ``mode=async``: returns the job id
        immediately; poll it with :meth:`job_status` /
        :meth:`wait_job`.  The job is durable — it survives a server
        restart and completes under the next incarnation."""
        payload = self._batch_payload(specs, claim_fingerprint)
        payload["mode"] = "async"
        return self._request("/v1/batch", payload)["job_id"]

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}``: progress plus partial results."""
        return self._request(f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /v1/jobs``: newest-first job summaries."""
        return self._request("/v1/jobs")["jobs"]

    def wait_job(
        self,
        job_id: str,
        poll: float = 0.25,
        timeout: Optional[float] = None,
        outage_budget: float = 60.0,
        on_progress=None,
    ) -> List[RunResult]:
        """Poll a job to completion; returns results in input order.

        Polling survives transient outages: any retryable failure
        (connection refused while the server restarts, a flapping
        proxy) keeps the loop alive until ``outage_budget`` seconds
        of *consecutive* failure — the job itself is durable, so the
        next healthy poll picks up exactly where the queue is.
        Raises :class:`ServiceError` on a failed job, a vanished job
        id, or ``TimeoutError`` after ``timeout`` seconds.

        ``on_progress`` (when given) receives each polled status
        document — including the retry/backoff telemetry the server
        reports (``attempts``, ``retrying``, ``task_errors`` with
        per-task attempt counts and last errors) — so callers can
        narrate flapping workers instead of polling silently.
        """
        deadline = None if timeout is None else time.time() + timeout
        outage_start: Optional[float] = None
        while True:
            try:
                status = self.job_status(job_id)
                outage_start = None
                if on_progress is not None:
                    on_progress(status)
            except ServiceError as exc:
                if not exc.retryable:
                    raise
                now = time.time()
                if outage_start is None:
                    outage_start = now
                if now - outage_start > outage_budget:
                    raise ServiceError(
                        exc.status,
                        f"job {job_id}: service unreachable for "
                        f"{outage_budget:g}s while polling "
                        f"({exc.message})",
                    ) from None
                status = None
            if status is not None:
                if status["state"] == "done":
                    results = status["results"]
                    return [
                        RunResult.from_dict(results[key])
                        for key in status["keys"]
                    ]
                if status["state"] == "failed":
                    errors = "; ".join(
                        f"{key}: {message}" for key, message
                        in sorted(status["errors"].items())
                    )
                    raise ServiceError(
                        500, f"job {job_id} failed: {errors}"
                    )
            if deadline is not None and time.time() > deadline:
                raise TimeoutError(
                    f"job {job_id} not finished after {timeout:g}s"
                )
            time.sleep(poll)

    def run_experiment(self, name: str) -> Dict[str, RunResult]:
        """``POST /v1/experiments/{name}``: evaluate server-side.

        Returns ``{spec.key(): RunResult}`` — the mapping the
        experiment's pure ``tabulate`` consumes, so
        ``get_experiment(name).tabulate(client.run_experiment(name))``
        is byte-identical to running the experiment in-process.  A
        server running different code is refused: its numbers could
        differ from a local run, and the whole point of the remote
        path is that nobody can tell where the table was evaluated.
        """
        from repro.store import code_fingerprint

        payload = {"fingerprint": code_fingerprint()}
        # The server checks the claimed fingerprint BEFORE evaluating
        # (409 on skew, no wasted computation); the response echo is
        # re-checked here in case an intermediary stripped the claim.
        response = self._request(f"/v1/experiments/{name}", payload)
        self.verify_fingerprint(response.get("fingerprint"))
        return {
            key: RunResult.from_dict(document)
            for key, document in response["results"].items()
        }

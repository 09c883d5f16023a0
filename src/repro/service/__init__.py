"""``repro.service`` — simulation as a fault-tolerant service.

An HTTP front-end (:mod:`repro.service.server`, stdlib only) over a
durable SQLite job queue (:mod:`repro.service.jobs`) and supervised
worker subprocesses (:mod:`repro.service.workers`), plus a resilient
client (:mod:`repro.service.client`) — batches are deduplicated and
single-flighted, crashed/hung workers are retried with backoff, jobs
survive server restarts, and responses stay byte-identical to
in-process evaluation: the service adds transport and survivability,
never semantics.

CLI: ``repro serve`` starts it, ``repro submit`` talks to it,
``repro jobs`` inspects the queue.
"""

import time

from repro import _lazy_exports

#: Default address of ``repro serve`` and of its clients (loopback: the
#: service has no authentication — put a real proxy in front for
#: anything public).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8323

#: Each re-exported name and the module that defines it, imported on
#: first access: a client loads neither the server nor, through it,
#: the evaluation stack.
_EXPORTS = {
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "create_server": "repro.service.server",
    "serve": "repro.service.server",
}


def wait_for_port_file(path, timeout: float = 30.0) -> int:
    """Poll ``--port-file`` until the server writes its bound port."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            with open(path) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    raise TimeoutError(
        f"no port appeared in {path} within {timeout:g}s"
    )


def wait_until_ready(
    url: str, timeout: float = 30.0, poll: float = 0.1
) -> dict:
    """Block until ``GET /v1/healthz`` answers (readiness).

    The bounded replacement for sleep-and-hope startup loops in tests
    and CI: polls with a short-timeout, non-retrying client and
    returns the healthz payload, or raises ``TimeoutError`` with the
    last failure after ``timeout`` seconds.  Readiness is *listening
    and answering* — a server that reports honest degradation (say, a
    zero-capacity queue or a read-only store) is still ready; callers
    inspect the returned payload when they need full health.
    """
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=min(5.0, timeout), retries=0)
    deadline = time.time() + timeout
    last = "no response"
    while time.time() < deadline:
        try:
            payload = client.healthz()
            if payload.get("status") in ("ok", "degraded"):
                return payload
            last = f"unexpected healthz payload: {payload}"
        except ServiceError as exc:
            last = exc.message
        time.sleep(poll)
    raise TimeoutError(
        f"service at {url} not ready within {timeout:g}s ({last})"
    )


__all__ = sorted([
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "wait_for_port_file",
    "wait_until_ready",
    *_EXPORTS,
])
__getattr__ = _lazy_exports(__name__, _EXPORTS)

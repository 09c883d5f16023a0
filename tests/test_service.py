"""Tests for the HTTP batch-evaluation service and its client/CLI.

The service must add transport, never semantics: single evals and
batches are byte-identical to in-process ``evaluate``/``evaluate_many``
calls, duplicates are deduped server-side, and every malformed input
comes back as a structured JSON error — never a traceback or a hung
socket.  ``repro submit`` and ``repro store`` are exercised through
the real CLI entry point.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    RESULT_SCHEMA_VERSION,
    RunSpec,
    architecture_ids,
    clear_result_cache,
    evaluate_many,
)
from repro.cli import main as cli_main
from repro.service import (
    ServiceClient,
    ServiceError,
    create_server,
    wait_until_ready,
)
from repro.store import STORE_ENV, reset_default_stores

TINY_D = "synthetic:num_accesses=512,seed=11"
TINY_I = "synthetic:num_blocks=64,block_packets=4,seed=11"


@pytest.fixture(scope="module")
def service():
    """One live in-process service on an OS-assigned port."""
    server = create_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    wait_until_ready(url)
    yield url
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service)


# ----------------------------------------------------------------------
# GET endpoints
# ----------------------------------------------------------------------

def test_healthz(client):
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert payload["result_schema"] == RESULT_SCHEMA_VERSION
    assert len(payload["fingerprint"]) == 16
    assert payload["draining"] is False
    assert set(payload["queue"]) == {
        "pending", "running", "done", "failed"
    }
    assert payload["pool"]["alive"] == payload["pool"]["workers"]


def test_healthz_typed_accessors(client):
    health = client.healthz()
    assert health.ok is True
    assert health.degraded_reasons == []
    assert health.store_configured is True
    assert health.draining is False
    assert health.queue_depth == 0
    assert health.uptime_seconds >= 0.0


def test_healthz_reports_degradation_honestly():
    """A server whose queue is saturated must say "degraded" with the
    reason — not a cheerful "ok" that load-sheds the next batch."""
    server = create_server(port=0, queue_limit=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        health = ServiceClient(url).healthz()
        assert health["status"] == "degraded"
        assert health.ok is False
        assert "queue_full" in health.degraded_reasons
        assert health.queue_limit == 0
    finally:
        server.shutdown()
        server.server_close()


def test_metrics_endpoint_speaks_prometheus(client, service):
    spec = RunSpec(cache="dcache", arch="original", workload=TINY_D)
    client.evaluate(spec)                   # at least one store miss
    text = client.metrics()
    assert "# TYPE repro_store_misses_total counter" in text
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_service_uptime_seconds" in text
    assert "repro_pool_workers" in text
    # Fleet-wide: the simulation ran in a worker subprocess, yet the
    # parent's scrape shows it (snapshot merged over the Pipe).
    for line in text.splitlines():
        if line.startswith("repro_simulations_total "):
            assert float(line.split()[1]) >= 1
            break
    else:
        pytest.fail("repro_simulations_total missing from scrape")
    # Lifetime store counters (the stats table) surface too.
    assert "repro_store_lifetime_misses_total" in text


def test_reports_dashboard_serves_html(client, service):
    import urllib.request

    spec = RunSpec(cache="icache", arch="panwar", workload=TINY_I)
    client.evaluate(spec)                   # something in the store
    with urllib.request.urlopen(
        f"{service}/v1/reports/", timeout=60
    ) as response:
        assert response.headers["Content-Type"].startswith("text/html")
        html = response.read().decode("utf-8")
    assert "<svg" in html or "bench history" in html
    assert "Result store" in html
    assert "lifetime" in html
    # Analytic tables render inline (no design points needed).
    assert "Table 2" in html


def test_dashboard_get_never_perturbs_store_counters(client, service):
    """Rendering the dashboard reads the store via ``peek_many`` — the
    displayed hit/miss counters must not move because someone looked
    at them."""
    import urllib.request

    def lifetime(name):
        for line in client.metrics().splitlines():
            if line.startswith(f"repro_store_lifetime_{name}_total "):
                return float(line.split()[1])
        return 0.0

    before = (lifetime("hits"), lifetime("misses"))
    urllib.request.urlopen(f"{service}/v1/reports/", timeout=60).read()
    assert (lifetime("hits"), lifetime("misses")) == before


def test_architectures_mirror_the_registry(client):
    payload = client.architectures()
    for side in ("dcache", "icache"):
        served = tuple(
            entry["id"] for entry in payload["architectures"][side]
        )
        assert served == architecture_ids(side)
    assert "compress" in payload["benchmarks"]
    assert "compress" in payload["scalable_benchmarks"]
    assert payload["engines"] == ["fast", "reference"]


def test_store_stats_endpoint(client):
    payload = client.store_stats()
    assert payload["enabled"] is True
    assert "entries" in payload


def test_experiments_endpoint_mirrors_the_catalog(client):
    from repro.experiments import get_experiment
    from repro.experiments.registry import experiment_catalog

    served = client.experiments()
    assert [entry["name"] for entry in served] == \
        list(experiment_catalog())
    for entry in served:
        experiment = get_experiment(entry["name"])
        assert entry["title"] == experiment.title
        assert entry["spec_count"] == len(experiment.specs())


def test_unknown_route_is_404(client):
    with pytest.raises(ServiceError) as err:
        client._request("/v1/nope")
    assert err.value.status == 404


# ----------------------------------------------------------------------
# evaluation endpoints
# ----------------------------------------------------------------------

def test_single_eval_matches_in_process(client):
    spec = RunSpec(cache="dcache", arch="way-memo-2x8", workload=TINY_D)
    remote = client.evaluate(spec)
    (local,) = evaluate_many([spec], workers=1, use_cache=False)
    assert remote.to_json() == local.to_json()


def test_batch_is_byte_identical_deduped_and_ordered(client):
    spec_a = RunSpec(cache="dcache", arch="original", workload=TINY_D)
    spec_b = RunSpec(cache="icache", arch="panwar", workload=TINY_I)
    batch = [spec_a, spec_b, spec_a]       # duplicate in the batch
    remote = client.evaluate_many(batch)
    local = evaluate_many(batch, workers=2, use_cache=False)
    assert [r.to_json() for r in remote] == [
        r.to_json() for r in local
    ]
    assert remote[0].spec == spec_a
    assert remote[1].spec == spec_b


def test_batch_accepts_a_bare_spec_array(client, service):
    spec = RunSpec(cache="dcache", arch="two-phase", workload=TINY_D)
    response = client._request("/v1/batch", [spec.to_dict()])
    assert response["count"] == 1
    assert response["schema_version"] == RESULT_SCHEMA_VERSION


def test_invalid_spec_is_a_400(client):
    with pytest.raises(ServiceError) as err:
        client.evaluate(
            {"cache": "dcache", "arch": "nope", "workload": "dct"}
        )
    assert err.value.status == 400
    assert "unknown dcache architecture" in err.value.message


def test_malformed_json_is_a_400(client, service):
    import urllib.request

    request = urllib.request.Request(
        f"{service}/v1/eval", data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400
    assert "invalid JSON" in json.loads(err.value.read())["error"]


def test_batch_rejects_non_integer_workers(client):
    spec = RunSpec(cache="dcache", arch="original", workload=TINY_D)
    with pytest.raises(ServiceError) as err:
        client._request(
            "/v1/batch",
            {"specs": [spec.to_dict()], "workers": "many"},
        )
    assert err.value.status == 400


# ----------------------------------------------------------------------
# worker claims: one subprocess per claim
# ----------------------------------------------------------------------

@contextlib.contextmanager
def private_server(tmp_path, **config):
    """A live server on its own job queue, so no other pool in this
    process claims its tasks."""
    server = create_server(
        port=0, job_db=str(tmp_path / "jobs.sqlite"), **config
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        wait_until_ready(url)
        yield url
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    """A result store of this test's own: no earlier run's write-back
    answers its batch before a worker runs."""
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "results.sqlite"))
    reset_default_stores()
    clear_result_cache()
    yield
    clear_result_cache()
    reset_default_stores()


def scrape(client, name):
    """One unlabelled sample from ``/v1/metrics`` (0 when absent)."""
    for line in client.metrics().splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


def test_one_worker_server_forks_once_per_batch(tmp_path, private_store):
    """Three replay groups (one per synthetic stream) on a one-worker
    server: one claim takes them all, so one subprocess serves the
    batch — one per stream before claims spanned groups."""
    specs = [
        RunSpec(
            cache="dcache", arch=arch,
            workload=f"synthetic:num_accesses=512,seed={seed}",
        )
        for seed in (1701, 1702, 1703)
        for arch in ("original", "way-memo-2x8")
    ]
    with private_server(tmp_path, workers=1) as url:
        client = ServiceClient(url)
        before = scrape(client, "repro_pool_spawns_total")
        remote = client.evaluate_many(specs)
        spawned = scrape(client, "repro_pool_spawns_total") - before
    local = evaluate_many(specs, workers=1, use_cache=False)
    assert [r.to_json() for r in remote] == [r.to_json() for r in local]
    assert spawned == 1


def test_group_reply_beyond_the_pipe_buffer_completes(tmp_path):
    """100 MAB geometries on one workload are one replay group whose
    reply (~87 KB pickled) outgrows the 64 KiB pipe buffer: the
    supervisor reads while the child writes, where joining the child
    first would stall it until the task timeout."""
    specs = [
        RunSpec(
            cache="dcache", arch="way-memo",
            workload="synthetic:num_accesses=512,seed=1801",
            params={"tag_entries": nt, "index_entries": ns},
        )
        for nt in range(1, 11)
        for ns in range(2, 12)
    ]
    with private_server(tmp_path, workers=1, task_timeout=30.0) as url:
        started = time.monotonic()
        remote = ServiceClient(url, timeout=120.0).evaluate_many(specs)
        elapsed = time.monotonic() - started
    local = evaluate_many(specs, workers=1, use_cache=False)
    assert len(remote) == 100
    assert [r.to_json() for r in remote] == [r.to_json() for r in local]
    assert elapsed < 30.0, "the batch stalled until the task timeout"


def test_worker_heap_pin_is_a_noop_without_mallopt(monkeypatch):
    """Where the C library has no ``mallopt`` (macOS, other libcs), or
    none can be opened, the worker keeps the allocator's defaults."""
    import ctypes

    from repro.service import workers

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    workers._pin_heap()

    def unavailable(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", unavailable)
    workers._pin_heap()


def test_worker_heap_pin_sets_both_glibc_thresholds(monkeypatch):
    """Under glibc the worker serves blocks below 32 MiB from its heap
    and trims it only past 1 GiB."""
    import ctypes

    from repro.service import workers

    calls = []

    class LibC:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: LibC())
    workers._pin_heap()
    assert sorted(calls) == [(-3, 32 << 20), (-1, 1 << 30)]


def test_one_spec_claim_through_the_worker_entry_answers_same_bytes():
    """A forked worker, its heap pinned, answers a one-spec claim with
    the bytes an in-process evaluation gives."""
    import multiprocessing

    from repro.service.workers import _subprocess_entry

    spec = RunSpec(cache="icache", arch="way-memo-2x16", workload=TINY_I)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(
        target=_subprocess_entry, args=((spec.to_json(),), sender)
    )
    worker.start()
    sender.close()
    try:
        reply = receiver.recv()
    finally:
        receiver.close()
        worker.join(30.0)
    assert worker.exitcode == 0
    assert reply["indices"] == [0]
    local = evaluate_many([spec], workers=1, use_cache=False)
    assert reply["results"] == [local[0].to_json()]


# ----------------------------------------------------------------------
# async jobs
# ----------------------------------------------------------------------

def test_async_batch_matches_sync_byte_for_byte(client):
    spec_a = RunSpec(cache="dcache", arch="original", workload=TINY_D)
    spec_b = RunSpec(cache="icache", arch="panwar", workload=TINY_I)
    batch = [spec_a, spec_b, spec_a]        # duplicate preserved
    job_id = client.submit_async(batch)
    assert job_id
    polled = client.wait_job(job_id, timeout=120)
    local = evaluate_many(batch, workers=1, use_cache=False)
    assert [r.to_json() for r in polled] == [
        r.to_json() for r in local
    ]


def test_job_status_carries_progress_and_results(client):
    spec = RunSpec(cache="dcache", arch="two-phase", workload=TINY_D)
    job_id = client.submit_async([spec])
    client.wait_job(job_id, timeout=120)
    status = client.job_status(job_id)
    assert status["state"] == "done"
    assert status["total"] == status["done"] == 1
    assert status["keys"] == [spec.key()]
    assert spec.key() in status["results"]
    assert job_id in [entry["id"] for entry in client.jobs()]


def test_unknown_job_is_a_404(client):
    with pytest.raises(ServiceError) as err:
        client.job_status("not-a-job")
    assert err.value.status == 404


def test_invalid_batch_mode_is_a_400(client):
    spec = RunSpec(cache="dcache", arch="original", workload=TINY_D)
    with pytest.raises(ServiceError) as err:
        client._request(
            "/v1/batch",
            {"specs": [spec.to_dict()], "mode": "later"},
        )
    assert err.value.status == 400
    assert "mode" in err.value.message


# ----------------------------------------------------------------------
# experiment evaluation endpoint
# ----------------------------------------------------------------------

def test_run_experiment_remote_matches_local_table(client):
    from repro.experiments import get_experiment, render, run_experiment

    name = "table2_delay"                 # analytic: zero specs, fast
    remote = client.run_experiment(name)
    assert remote == {}
    rendered = render(get_experiment(name).tabulate(remote))
    assert rendered == render(run_experiment(name))


def test_run_scenario_experiment_remote_matches_local(client):
    from repro.experiments import get_experiment, render, run_experiment

    name = "scenario:thrash-adversarial"  # six synthetic specs, no ISS
    remote = client.run_experiment(name)
    rendered = render(get_experiment(name).tabulate(remote))
    assert rendered == render(run_experiment(name))


def test_run_experiment_results_are_keyed_by_spec_json(client):
    from repro.experiments import get_experiment

    name = "ablation_adder_width"         # 35 D-side specs, cheap
    keys = {spec.key() for spec in get_experiment(name).specs()}
    response = client._request(f"/v1/experiments/{name}", {})
    assert response["name"] == name
    assert response["count"] == len(keys) == 35
    assert set(response["results"]) == keys


def test_remote_batch_is_refused_by_its_fingerprint_claim(
    tmp_path, monkeypatch
):
    """``fetch_results(..., url=...)`` against a server on other code:
    the batch's own fingerprint claim is the one skew check, answered
    409 before a spec is queued (no ``healthz`` round trip first)."""
    import repro.store
    from repro.experiments.registry import fetch_results

    specs = [RunSpec(cache="dcache", arch="original", workload=TINY_D)]
    paths = []
    request = ServiceClient._request

    def recording_request(self, path, payload=None):
        paths.append(path)
        return request(self, path, payload)

    with private_server(tmp_path, workers=1) as url:
        monkeypatch.setattr(
            repro.store, "code_fingerprint", lambda: "f" * 16
        )
        monkeypatch.setattr(ServiceClient, "_request", recording_request)
        with pytest.raises(ServiceError) as err:
            fetch_results(specs, url=url)
        requested = list(paths)
        jobs = ServiceClient(url).jobs()
    assert err.value.status == 409
    assert "fingerprint" in err.value.message
    assert requested == ["/v1/batch"]
    assert jobs == []


def test_run_experiment_refuses_version_skewed_server(
    client, monkeypatch
):
    """A server on different code must be refused, not silently
    rendered: its numbers could differ from a local run."""
    import repro.store

    monkeypatch.setattr(
        repro.store, "code_fingerprint", lambda: "f" * 16
    )
    with pytest.raises(ServiceError) as err:
        client.run_experiment("table2_delay")
    assert err.value.status == 409
    assert "fingerprint" in err.value.message


def test_unknown_experiment_is_a_404(client):
    with pytest.raises(ServiceError) as err:
        client.run_experiment("figure99")
    assert err.value.status == 404
    assert "table1_area" in err.value.message


def test_experiment_rejects_non_object_body(client):
    with pytest.raises(ServiceError) as err:
        client._request("/v1/experiments/table2_delay", ["nope"])
    assert err.value.status == 400


def test_run_cli_url_matches_local_run(client, service, capsys):
    assert cli_main(["run", "table2_delay", "--url", service]) == 0
    remote_out = capsys.readouterr().out
    assert cli_main(["run", "table2_delay"]) == 0
    assert remote_out == capsys.readouterr().out


#: ``repro ARGS`` in a client process that cannot import NumPy.
NUMPY_LESS_CLIENT = (
    "import sys; sys.modules['numpy'] = None; "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _numpy_less_cli(args, store):
    """Run ``repro ARGS`` in a NumPy-less client whose result store is
    ``store``; returns its standard output."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "REPRO_RESULT_STORE": str(store),
    }
    return subprocess.run(
        [sys.executable, "-c", NUMPY_LESS_CLIENT, *args], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout


def test_report_url_renders_local_bytes_without_numpy(
    service, tmp_path
):
    """The remote leg needs no simulator: a client that cannot import
    NumPy renders the local report byte for byte."""
    subset = ["figure4_dcache_accesses", "figure5_dcache_power",
              "table2_delay", "ablation_fetch_width"]
    local, remote = tmp_path / "local.md", tmp_path / "remote.md"
    assert cli_main(["report", *subset, "-o", str(local)]) == 0
    _numpy_less_cli(
        ["report", "--url", service, *subset, "-o", str(remote)],
        tmp_path / "client.sqlite",
    )
    assert remote.read_bytes() == local.read_bytes()


def test_report_url_opens_no_local_store(
    service, tmp_path, monkeypatch, capsys
):
    """A remote report reads the service's store: the client opens no
    store of its own and prints no store line; a local report still
    does both."""
    from repro.store import STORE_ENV, reset_default_stores

    store = tmp_path / "client.sqlite"
    out = _numpy_less_cli(
        ["report", "--url", service, "figure4_dcache_accesses",
         "-o", str(tmp_path / "remote.md")],
        store,
    )
    assert "result store" not in out
    assert not store.exists()

    monkeypatch.setenv(STORE_ENV, str(store))
    reset_default_stores()
    try:
        assert cli_main(
            ["report", "table2_delay", "-o", str(tmp_path / "local.md")]
        ) == 0
    finally:
        reset_default_stores()
    assert "result store: 0 hit(s), 0 miss(es)" in capsys.readouterr().out
    assert store.exists()


def test_run_cli_unreachable_service(capsys):
    # A spec-driven experiment needs the remote evaluation; spec-less
    # ones tabulate locally and never touch the wire.
    assert cli_main(
        ["run", "figure4_dcache_accesses", "--url", "http://127.0.0.1:9"]
    ) == 1
    assert "cannot reach service" in capsys.readouterr().err
    assert cli_main(
        ["run", "table2_delay", "--url", "http://127.0.0.1:9"]
    ) == 0


# ----------------------------------------------------------------------
# CLI: repro submit / repro store
# ----------------------------------------------------------------------

def test_submit_cli_round_trips(client, service, capsys):
    spec = {"cache": "dcache", "arch": "way-memo-2x8",
            "workload": TINY_D}
    assert cli_main(
        ["submit", json.dumps(spec), "--url", service]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["arch"] == "way-memo-2x8"
    assert payload["counters"]["accesses"] == 512


def test_submit_cli_batch_matches_eval_cli(service, capsys):
    specs = json.dumps([
        {"cache": "icache", "arch": "panwar", "workload": TINY_I},
        {"cache": "dcache", "arch": "original", "workload": TINY_D},
    ])
    assert cli_main(["submit", specs, "--url", service]) == 0
    submitted = capsys.readouterr().out
    assert cli_main(["eval", specs]) == 0
    evaluated = capsys.readouterr().out
    assert submitted == evaluated


def test_submit_cli_async_then_jobs_wait_round_trips(
    service, capsys
):
    spec = {"cache": "icache", "arch": "panwar", "workload": TINY_I}
    assert cli_main(
        ["submit", json.dumps(spec), "--url", service, "--async"]
    ) == 0
    job_id = json.loads(capsys.readouterr().out)["job_id"]

    assert cli_main(
        ["jobs", job_id, "--url", service, "--wait"]
    ) == 0
    (document,) = json.loads(capsys.readouterr().out)
    assert document["spec"]["arch"] == "panwar"

    assert cli_main(["jobs", job_id, "--url", service]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["state"] == "done"
    assert "results" not in status          # progress view, not payload

    assert cli_main(["jobs", "--url", service]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert job_id in [entry["id"] for entry in listing["jobs"]]


def test_jobs_cli_unreachable_service(capsys):
    assert cli_main(
        ["jobs", "--url", "http://127.0.0.1:9"]
    ) == 1
    assert "cannot reach service" in capsys.readouterr().err


def test_submit_cli_rejects_garbage_before_sending(service, capsys):
    assert cli_main(["submit", "{not json", "--url", service]) == 2
    assert "invalid spec JSON" in capsys.readouterr().err


def test_submit_cli_unreachable_service(capsys):
    assert cli_main([
        "submit", '{"cache": "dcache", "arch": "original", '
        f'"workload": "{TINY_D}"}}',
        "--url", "http://127.0.0.1:9",     # discard port: never open
    ]) == 1
    assert "cannot reach service" in capsys.readouterr().err


def test_store_cli_stats_export_gc(tmp_path, monkeypatch, capsys):
    from repro.store import STORE_ENV, reset_default_stores

    monkeypatch.setenv(STORE_ENV, str(tmp_path / "cli.sqlite"))
    reset_default_stores()
    try:
        assert cli_main(["store", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        out = tmp_path / "dump.jsonl"
        assert cli_main(["store", "export", "-o", str(out)]) == 0
        assert out.read_text() == ""
        assert cli_main(["store", "gc"]) == 0
        assert "0 row(s)" in capsys.readouterr().out
    finally:
        reset_default_stores()


def test_store_cli_reports_disabled_store(monkeypatch, capsys):
    from repro.store import STORE_ENV, reset_default_stores

    monkeypatch.setenv(STORE_ENV, "off")
    reset_default_stores()
    try:
        assert cli_main(["store", "stats"]) == 2
        assert "disabled" in capsys.readouterr().err
    finally:
        reset_default_stores()

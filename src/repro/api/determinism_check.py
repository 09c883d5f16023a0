"""Determinism self-check: 1 vs N workers vs the HTTP service.

Run as ``python -m repro.api.determinism_check [--workers N]``.  Builds
a small cross-section of the design space (both cache sides, the
comparison baselines, a parametric way-memo point, a scaled benchmark
and a synthetic workload), evaluates it three ways —

* serially in this process (``workers=1``),
* over a worker pool (``workers=N``), and
* through an in-process instance of the HTTP batch service
  (``repro.service``, unless ``--no-service``), and
* with ``--faults``, through a service under injected worker
  crashes, hangs, and store faults (``repro.testing.faults``) —
  proving the failure path is as deterministic as the happy path —
* with ``--scenario``, additionally rendering a shipped scenario's
  finished table serially, pooled and via a live service —

and fails (exit 1) unless all serialized result batches are
byte-identical.  The service leg also renders a markdown report
remotely (``repro report --url`` semantics: a fingerprint-checked
deduplicated spec batch is evaluated server-side, this process
tabulates) and compares it byte-for-byte against the locally
generated document.  CI runs this against a warm trace cache; it
also reproduces the guarantee locally in a few seconds.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional, Tuple

from repro.api.evaluate import evaluate_many
from repro.api.registry import comparison_archs
from repro.api.spec import RunSpec


def check_specs() -> List[RunSpec]:
    """A small but representative batch (both sides, params, synthetic,
    workload modifiers, a non-FR-V cache geometry).

    The shared-workload groups are deliberately wide: each side's
    ``dct``/``fft`` group spans seven distinct architectures (the
    filter cache's own L1 walk beside designs deriving from the shared
    sweep) and carries three way-memo MAB geometries, so the replay
    engine's shared batch sweep, the filter cache's walk, and the
    one-column-split-per-sweep property are all exercised by every
    leg of this check.
    """
    specs = [
        RunSpec(cache=side, arch=arch, workload=benchmark)
        for side in ("dcache", "icache")
        for arch in comparison_archs(side)
        for benchmark in ("dct", "fft")
    ]
    specs.append(RunSpec(
        cache="dcache", arch="set-buffer", workload="dct",
    ))
    specs.append(RunSpec(
        cache="dcache", arch="way-memo", workload="dct",
        params={"tag_entries": 4, "index_entries": 4},
    ))
    specs.append(RunSpec(
        cache="dcache", arch="way-memo", workload="dct",
        params={"tag_entries": 8, "index_entries": 16},
    ))
    specs.append(RunSpec(
        cache="icache", arch="way-memo", workload="fft",
        params={"index_entries": 32},
    ))
    specs.append(RunSpec(
        cache="icache", arch="way-memo", workload="fft",
        params={"tag_entries": 4, "index_entries": 16},
    ))
    specs.append(RunSpec(
        cache="dcache", arch="way-memo-2x8",
        workload="synthetic:num_accesses=4096,seed=7",
    ))
    specs.append(RunSpec(
        cache="dcache", arch="way-memo-2x8", workload="dct:scale=1",
    ))
    # Workload modifiers and a cache geometry: a re-derived fetch
    # stream, an injected data stream and a 4-way D-cache.
    specs.append(RunSpec(
        cache="icache", arch="way-memo-2x16", workload="fft:packet=16",
    ))
    specs.append(RunSpec(
        cache="dcache", arch="way-memo-2x8", workload="dct:stack=0.2",
    ))
    specs.append(RunSpec(
        cache="dcache", arch="way-memo", workload="dct",
        params={"ways": 4},
    ))
    return specs


#: The experiments the remote-report leg renders: one spec-driven
#: figure plus one analytic table keeps the check representative and
#: fast (the figure's points land in the store for later legs).
REPORT_EXPERIMENTS = ("figure4_dcache_accesses", "table2_delay")


def _service_batch(specs: List[RunSpec]) -> Tuple[List[str], str]:
    """Evaluate ``specs`` — and render a remote report — through a
    live in-process HTTP service."""
    from repro.experiments import report
    from repro.service import ServiceClient, create_server

    server = create_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        client = ServiceClient(url)
        results = client.evaluate_many(specs)
        remote_report = report.generate(list(REPORT_EXPERIMENTS), url=url)
        return [r.to_json() for r in results], remote_report
    finally:
        server.shutdown()
        server.server_close()


#: The fault plan the ``--faults`` leg injects: two worker crashes,
#: one hang (killed at the task timeout), seeded store read/write
#: faults and a seeded slow-simulation chance — every failure mode
#: the service must absorb without changing a byte.
FAULT_PLAN = (
    "worker_crash:2,worker_hang:1,"
    "store_read_error:0.2,store_write_error:0.2,slow_sim:0.1"
)


def _fault_leg(specs: List[RunSpec]) -> List[str]:
    """Evaluate ``specs`` through a service under injected faults.

    Runs against a *fresh* temporary store and job queue so every
    result is really simulated under the fault plan (a warm store
    would answer from disk and prove nothing), with a short task
    timeout so the injected hang exercises the kill-and-retry path.
    """
    import os
    import tempfile

    from repro.service import (
        ServiceClient,
        create_server,
        wait_until_ready,
    )
    from repro.service.jobs import JOB_DB_ENV
    from repro.store import STORE_ENV, reset_default_stores
    from repro.testing import faults

    with tempfile.TemporaryDirectory(prefix="repro-faultleg-") as tmp:
        saved = {
            name: os.environ.get(name)
            for name in (STORE_ENV, JOB_DB_ENV)
        }
        os.environ[STORE_ENV] = os.path.join(tmp, "results.sqlite")
        os.environ[JOB_DB_ENV] = os.path.join(tmp, "jobs.sqlite")
        reset_default_stores()
        try:
            with faults.activate(
                FAULT_PLAN, seed=13,
                state_dir=os.path.join(tmp, "state"),
            ) as plan:
                server = create_server(
                    port=0, task_timeout=5.0, max_attempts=5,
                )
                thread = threading.Thread(
                    target=server.serve_forever, daemon=True
                )
                thread.start()
                try:
                    url = (
                        f"http://127.0.0.1:{server.server_address[1]}"
                    )
                    wait_until_ready(url)
                    client = ServiceClient(url, timeout=600.0)
                    results = client.evaluate_many(specs)
                finally:
                    server.shutdown()
                    server.server_close()
                print(
                    f"  fault leg: {plan.fired('worker_crash')} "
                    f"crash(es), {plan.fired('worker_hang')} hang(s) "
                    "injected",
                    file=sys.stderr,
                )
            return [r.to_json() for r in results]
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            reset_default_stores()


#: The shipped scenario the ``--scenario`` leg renders: the cheapest
#: one (six synthetic design points, no ISS runs needed).
SCENARIO_NAME = "thrash-adversarial"


def _scenario_leg(
    workers: int, include_service: bool
) -> Tuple[str, str, Optional[str]]:
    """Render one shipped scenario's finished table three ways.

    ``repro run scenario:<name>`` must produce the same bytes with
    serial evaluation, a worker pool, and design points evaluated by
    a live HTTP service (``--url`` semantics: remote results, local
    tabulation).  Returns the three rendered tables (service leg is
    None when skipped); the caller compares.
    """
    from repro.experiments.registry import keyed_results
    from repro.experiments.reporting import render
    from repro.scenarios import load_shipped, scenario_experiment

    record = scenario_experiment(load_shipped(SCENARIO_NAME))
    specs = record.specs()

    def rendered(results) -> str:
        return render(record.tabulate(keyed_results(specs, results)))

    serial = rendered(evaluate_many(specs, workers=1, use_cache=False))
    pooled = rendered(
        evaluate_many(specs, workers=workers, use_cache=False)
    )
    if not include_service:
        return serial, pooled, None

    from repro.service import ServiceClient, create_server

    server = create_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        results = ServiceClient(url).evaluate_many(specs)
    finally:
        server.shutdown()
        server.server_close()
    return serial, pooled, rendered(results)


def _telemetry_leg(
    specs: List[RunSpec], workers: int
) -> Tuple[List[str], List[str], str, str, int, int]:
    """Evaluate — and render a report — with telemetry fully on and
    fully off.

    Telemetry must be a pure observer: serialized results and the
    rendered markdown report must be byte-identical with the metrics
    registry live and a span trace file attached
    (``REPRO_TELEMETRY=1`` + ``$REPRO_TRACE_FILE``) and with the
    whole layer disabled (``REPRO_TELEMETRY=0``).  Returns the two
    result batches, the two reports, and the trace-file span count
    after each leg — the off leg keeps ``$REPRO_TRACE_FILE`` set, so
    an unchanged count proves the kill switch covers tracing too.
    """
    import os
    import tempfile

    from repro.experiments import report
    from repro.telemetry import metrics as telemetry
    from repro.telemetry.tracing import TRACE_FILE_ENV, load_trace_file

    saved = {
        name: os.environ.get(name)
        for name in (telemetry.TELEMETRY_ENV, TRACE_FILE_ENV)
    }
    with tempfile.TemporaryDirectory(prefix="repro-teleleg-") as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        try:
            os.environ[telemetry.TELEMETRY_ENV] = "1"
            os.environ[TRACE_FILE_ENV] = trace_path
            on = [
                r.to_json()
                for r in evaluate_many(specs, workers=workers,
                                       use_cache=False)
            ]
            on_report = report.generate(
                list(REPORT_EXPERIMENTS), workers=workers
            )
            spans_on = len(load_trace_file(trace_path))

            os.environ[telemetry.TELEMETRY_ENV] = "0"
            off = [
                r.to_json()
                for r in evaluate_many(specs, workers=workers,
                                       use_cache=False)
            ]
            off_report = report.generate(
                list(REPORT_EXPERIMENTS), workers=workers
            )
            spans_off = len(load_trace_file(trace_path))
            return on, off, on_report, off_report, spans_on, spans_off
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def _report_mismatch(
    label: str, specs: List[RunSpec], a: List[str], b: List[str]
) -> None:
    if len(a) != len(b):
        print(
            f"MISMATCH ({label}): {len(a)} vs {len(b)} results for "
            f"{len(specs)} specs",
            file=sys.stderr,
        )
    for i, (left, right) in enumerate(zip(a, b)):
        if left != right:
            print(
                f"MISMATCH ({label}) at spec {i}: {specs[i].key()}",
                file=sys.stderr,
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.determinism_check",
        description=(
            "evaluate_many 1-vs-N-worker and in-process-vs-service "
            "byte-identity check"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="pool size for the parallel run (default: 4)",
    )
    parser.add_argument(
        "--no-service", action="store_true",
        help="skip the HTTP-service leg of the check",
    )
    parser.add_argument(
        "--scenario", action="store_true",
        help="add a scenario leg: render the shipped "
             f"'{SCENARIO_NAME}' scenario table serially, pooled and "
             "against a live service, and require byte-identity",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="add a telemetry leg: re-evaluate and re-render the "
             "report with the metrics registry and a span trace file "
             "on, then with REPRO_TELEMETRY=0, and require "
             "byte-identity both ways",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="add a fault-injection leg: evaluate through a service "
             "under injected worker crashes, hangs and store faults "
             "and require byte-identity with the clean serial run",
    )
    args = parser.parse_args(argv)

    specs = check_specs()
    serial = [
        r.to_json()
        for r in evaluate_many(specs, workers=1, use_cache=False)
    ]
    pooled = [
        r.to_json()
        for r in evaluate_many(specs, workers=args.workers,
                               use_cache=False)
    ]
    if serial != pooled:
        _report_mismatch("1 vs N workers", specs, serial, pooled)
        return 1
    legs = f"1 vs {args.workers} workers"
    if not args.no_service:
        from repro.experiments import report

        service, remote_report = _service_batch(specs)
        if serial != service:
            _report_mismatch("in-process vs service", specs, serial,
                             service)
            return 1
        local_report = report.generate(
            list(REPORT_EXPERIMENTS), workers=args.workers
        )
        if local_report != remote_report:
            print(
                "MISMATCH (report --url vs local): remote and local "
                f"markdown differ for {REPORT_EXPERIMENTS}",
                file=sys.stderr,
            )
            return 1
        legs += " vs HTTP service (incl. remote report render)"
    if args.scenario:
        s_serial, s_pooled, s_service = _scenario_leg(
            args.workers, include_service=not args.no_service
        )
        if s_serial != s_pooled:
            print(
                f"MISMATCH (scenario {SCENARIO_NAME}): serial and "
                "pooled rendered tables differ",
                file=sys.stderr,
            )
            return 1
        if s_service is not None and s_serial != s_service:
            print(
                f"MISMATCH (scenario {SCENARIO_NAME}): local and "
                "service-evaluated rendered tables differ",
                file=sys.stderr,
            )
            return 1
        legs += " vs scenario table render"
    if args.telemetry:
        (tele_on, tele_off, report_on, report_off,
         spans_on, spans_off) = _telemetry_leg(specs, args.workers)
        if serial != tele_on:
            _report_mismatch(
                "clean vs telemetry-on", specs, serial, tele_on
            )
            return 1
        if tele_on != tele_off:
            _report_mismatch(
                "telemetry-on vs telemetry-off", specs, tele_on,
                tele_off,
            )
            return 1
        if report_on != report_off:
            print(
                "MISMATCH (telemetry): markdown report differs with "
                "REPRO_TELEMETRY on vs off",
                file=sys.stderr,
            )
            return 1
        if spans_on == 0:
            print(
                "MISMATCH (telemetry): trace file is empty after the "
                "telemetry-on leg",
                file=sys.stderr,
            )
            return 1
        if spans_off != spans_on:
            print(
                "MISMATCH (telemetry): disabled leg appended "
                f"{spans_off - spans_on} span(s) to the trace file",
                file=sys.stderr,
            )
            return 1
        print(
            f"  telemetry leg: {spans_on} span(s) traced, "
            "results and report byte-identical on/off",
            file=sys.stderr,
        )
        legs += " vs telemetry on/off (incl. report render)"
    if args.faults:
        faulted = _fault_leg(specs)
        if serial != faulted:
            _report_mismatch(
                "clean vs fault-injected service", specs, serial,
                faulted,
            )
            return 1
        legs += " vs fault-injected service"
    print(
        f"evaluate_many determinism ok: {len(specs)} specs, "
        f"{legs} byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

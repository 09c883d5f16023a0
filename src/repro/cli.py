"""Command-line front-end: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``repro list``
    Show available experiments, benchmarks, registered architectures
    (with cache side and parameter defaults), sweeps and shipped
    scenarios.
``repro run <experiment> [...] [--json] [--workers N] [--url URL]``
    Run one or more experiments (or ``all``) and print their tables,
    or a schema-versioned JSON document with ``--json``.  Accepts any
    catalog name — paper experiments, registered sweeps
    (``sweep_mab_size``), shipped scenarios (``scenario:<name>``) —
    plus ``@scenario.json`` files.  The named experiments' design
    points are evaluated as one deduplicated batch; with ``--url``
    that batch runs on a running service and only the (pure)
    tabulation happens locally.
``repro eval <spec.json> [--workers N]``
    Evaluate declarative run specs (inline JSON, ``@file`` or ``-``
    for stdin) and print serialized ``RunResult`` documents.  A
    scenario document (``scenario_version`` field) expands to its
    declared spec batch.
``repro bench <benchmark>``
    Execute one benchmark on the ISS, verify it against its golden
    model and print trace statistics.
``repro disasm <benchmark>``
    Print the benchmark's assembled text segment.
``repro profile <benchmark>``
    Print a hot-block / working-set profile and a MAB size suggestion.
``repro trace <benchmark> -o out.npz``
    Export the benchmark's traces for external tooling.
``repro report [-o FILE] [--workers N] [--url URL] [EXPERIMENT ...]``
    Run every experiment (or a subset) into one markdown report
    (parallel prefetch; ``--url`` evaluates on a running service and
    renders locally, byte-identical).
``repro sweep [--experiment ...] [--workers N] [--grid paper|full]``
    Parallel design-space sweeps (full MAB grid, baseline matrix)
    over the shared on-disk trace cache.
``repro search [--cache SIDE] [--objective NAME] [--seed N]
[--budget K] [--out FILE] [--quick]``
    Hunt the synthetic-generator parameter space for the scenario
    maximizing a scored objective; writes the winner as a reloadable
    scenario file (``repro.scenarios.search``).
``repro serve [--host H] [--port P] [--workers N] [--port-file F]
[--job-db F] [--task-timeout S] [--max-attempts N] [--queue-limit N]``
    Run the HTTP batch-evaluation service (``repro.service``):
    durable job queue, supervised worker subprocesses with per-task
    timeouts and retry/backoff, load shedding, SIGTERM drain.
``repro submit <spec.json> [--url URL] [--async]``
    Evaluate run specs against a running service — same input and
    output documents as ``repro eval``, remote execution.  With
    ``--async`` print a durable job id immediately.
``repro jobs [ID] [--url URL] [--wait]``
    List the service's jobs, show one job's progress, or poll it to
    completion (``--wait``; survives transient outages).
``repro store {stats,gc,export,import}``
    Inspect / reclaim / dump / merge the persistent result store
    (``$REPRO_RESULT_STORE``).  ``gc`` takes ``--max-rows`` /
    ``--max-age`` for least-recently-used eviction; ``import`` merges
    another store's ``export`` archive.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS, render
from repro.experiments.registry import fetch_results
from repro.workloads import BENCHMARK_NAMES, get_benchmark, run_benchmark


def _report_service_failure(url: str, exc: Exception) -> int:
    """Print a usable message for a failed remote call; exit code 1.

    The client wraps every transport fault (refused connections,
    timeouts, resets mid-response) in :class:`ServiceError` with
    status 0, so one branch covers "the service is unreachable" and
    another covers real HTTP errors.  Anything else is local work's
    own failure and keeps its traceback rather than slander a
    healthy server.
    """
    from repro.service.client import TRANSPORT_ERROR, ServiceError

    if isinstance(exc, ServiceError):
        if exc.status == TRANSPORT_ERROR:
            print(f"cannot reach service at {url}: {exc.message} "
                  "(start one with 'repro serve')", file=sys.stderr)
        else:
            print(f"service error: {exc}", file=sys.stderr)
    else:
        raise exc
    return 1


def _resolve_run_targets(names: List[str]):
    """Resolve ``repro run`` arguments to Experiment records.

    Accepts any catalog name — paper experiments, registered sweeps,
    shipped ``scenario:<name>`` records — plus ``@file.json`` scenario
    files; returns the records, or None after printing the error.
    """
    from repro.experiments import get_experiment
    from repro.experiments.registry import experiment_catalog
    from repro.scenarios import (
        ScenarioError,
        load_scenario_file,
        scenario_experiment,
    )

    if names == ["all"]:
        names = list(EXPERIMENTS)
    records, unknown = [], []
    for name in names:
        if name.startswith("@"):
            try:
                records.append(
                    scenario_experiment(load_scenario_file(name[1:]))
                )
            except ScenarioError as exc:
                print(f"invalid scenario: {exc}", file=sys.stderr)
                return None
            continue
        try:
            records.append(get_experiment(name))
        except KeyError:
            unknown.append(name)
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(experiment_catalog())} "
              "(or @scenario.json)", file=sys.stderr)
        return None
    return records


def _run_experiments(
    names: List[str],
    as_json: bool = False,
    workers: Optional[int] = 1,
    url: Optional[str] = None,
) -> int:
    from repro.scenarios import ScenarioInvariantError

    records = _resolve_run_targets(names)
    if records is None:
        return 2
    # Every record's design points travel as one deduplicated batch,
    # locally or remotely.  Only a remote fetch gets the
    # service-failure translation; local evaluation, tabulation and
    # rendering keep their own tracebacks.
    try:
        fetched = fetch_results(
            [spec for record in records for spec in record.specs()],
            workers=workers, url=url,
        )
    except Exception as exc:   # noqa: BLE001 — remote failures only
        if url is None:
            raise
        return _report_service_failure(url, exc)
    try:
        results = [record.tabulate(fetched) for record in records]
    except ScenarioInvariantError as exc:
        print(f"scenario invariant violated: {exc}", file=sys.stderr)
        return 1
    if as_json:
        from repro.api import RESULT_SCHEMA_VERSION

        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "results": [
                {
                    "name": r.name,
                    "title": r.title,
                    "columns": list(r.columns),
                    "rows": r.rows,
                    "notes": r.notes,
                    "paper_reference": r.paper_reference,
                    "rendered": render(r),
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for pos, result in enumerate(results):
        print(render(result))
        if pos + 1 != len(results):
            print()
    return 0


def _read_spec_document(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        with open(text[1:]) as handle:
            return handle.read()
    return text


def _parse_specs(document: str):
    """Shared spec parsing for ``eval``/``submit``.

    Returns ``(specs, single)`` or ``None`` after printing the error
    (single marks a bare object, echoed back as one document).
    """
    from repro.api import RunSpec

    try:
        payload = json.loads(_read_spec_document(document))
    except OSError as exc:
        print(f"cannot read spec file: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"invalid spec JSON: {exc}", file=sys.stderr)
        return None
    single = isinstance(payload, dict)
    if single and "scenario_version" in payload:
        # A scenario document: expand to its declared spec batch.
        from repro.scenarios import Scenario, ScenarioError

        try:
            return Scenario.from_dict(payload).specs(), False
        except ScenarioError as exc:
            print(f"invalid scenario: {exc}", file=sys.stderr)
            return None
    items = [payload] if single else payload
    if not isinstance(items, list) or not all(
        isinstance(item, dict) for item in items
    ):
        print("invalid spec: expected a JSON object or an array of "
              "objects", file=sys.stderr)
        return None
    try:
        specs = [RunSpec.from_dict(item) for item in items]
    except (KeyError, ValueError, TypeError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return None
    return specs, single


def _print_results(results, single: bool, indent: int) -> None:
    documents = [r.to_dict() for r in results]
    print(json.dumps(
        documents[0] if single else documents,
        indent=indent, sort_keys=True,
    ))


def _eval_specs(
    document: str, workers: Optional[int], indent: int
) -> int:
    """``repro eval``: evaluate one spec or a batch from JSON."""
    from repro.api import evaluate_many

    parsed = _parse_specs(document)
    if parsed is None:
        return 2
    specs, single = parsed
    results = evaluate_many(specs, workers=workers)
    _print_results(results, single, indent)
    return 0


def _submit_specs(
    document: str,
    url: str,
    workers: Optional[int],
    indent: int,
    as_async: bool = False,
) -> int:
    """``repro submit``: like ``eval``, but against a running service.

    ``--async`` submits a durable job and prints its id immediately;
    poll it with ``repro jobs ID --wait``.
    """
    from repro.service import ServiceClient

    parsed = _parse_specs(document)
    if parsed is None:
        return 2
    specs, single = parsed
    client = ServiceClient(url)
    try:
        if as_async:
            job_id = client.submit_async(specs)
            print(json.dumps({"job_id": job_id}, indent=indent))
            return 0
        results = client.evaluate_many(specs, workers=workers)
    except Exception as exc:   # noqa: BLE001 — remote failures only
        return _report_service_failure(url, exc)
    _print_results(results, single, indent)
    return 0


def _jobs_progress_printer():
    """Build a ``wait_job`` progress callback printing to stderr.

    Emits a line only when the picture changes (done count, retry
    count, or a task's attempt counter), so a long quiet poll loop
    stays quiet; retrying tasks surface their attempt number and last
    error, which is how a flapping worker becomes visible from the
    client side.
    """
    last = [None]

    def on_progress(status) -> None:
        errors = status.get("task_errors") or {}
        snapshot = (
            status.get("done"),
            status.get("retrying"),
            tuple(sorted(
                (key, info.get("attempts"))
                for key, info in errors.items()
            )),
        )
        if snapshot == last[0]:
            return
        last[0] = snapshot
        line = (
            f"jobs: {status.get('done', 0)}/{status.get('total', 0)} done"
        )
        retrying = status.get("retrying") or 0
        if retrying:
            line += f", {retrying} retrying"
        print(line, file=sys.stderr)
        for key, info in sorted(errors.items()):
            print(
                f"  retry {key[:12]} attempt {info.get('attempts')}: "
                f"{info.get('last_error')}",
                file=sys.stderr,
            )

    return on_progress


def _jobs_command(
    url: str, job_id: Optional[str], wait: bool, indent: int
) -> int:
    """``repro jobs [ID]``: inspect the service's durable job queue."""
    from repro.service import ServiceClient

    client = ServiceClient(url)
    try:
        if job_id is None:
            payload = {"jobs": client.jobs()}
        elif wait:
            results = client.wait_job(
                job_id, on_progress=_jobs_progress_printer()
            )
            _print_results(results, single=False, indent=indent)
            return 0
        else:
            payload = client.job_status(job_id)
            payload.pop("keys", None)
            payload.pop("results", None)
    except Exception as exc:   # noqa: BLE001 — remote failures only
        return _report_service_failure(url, exc)
    print(json.dumps(payload, indent=indent, sort_keys=True))
    return 0


def _store_command(args) -> int:
    """``repro store {stats,gc,export,import}`` on the resolved store."""
    from repro.store import default_store, store_path

    command = args.store_command
    if store_path() is None:
        print("result store is disabled ($REPRO_RESULT_STORE is off)",
              file=sys.stderr)
        return 2
    store = default_store()
    if store is None:
        print(f"result store at {store_path()} cannot be opened",
              file=sys.stderr)
        return 2
    if command == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
        return 0
    if command == "gc":
        try:
            removed = store.gc(
                max_rows=args.max_rows, max_age_days=args.max_age
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        scope = "older code versions / schemas"
        if args.max_rows is not None or args.max_age is not None:
            scope += " and least-recently-used rows"
        print(f"removed {removed} row(s) from {scope}; "
              f"{store.stats()['entries']} row(s) remain")
        return 0
    if command == "export":
        output = args.output
        if output:
            with open(output, "w") as handle:
                count = store.export(handle)
            print(f"wrote {count} result(s) to {output}")
        else:
            store.export(sys.stdout)
        return 0
    if command == "import":
        try:
            with open(args.archive) as handle:
                merged = store.import_archive(handle)
        except OSError as exc:
            print(f"cannot read archive: {exc}", file=sys.stderr)
            return 2
        print(
            f"merged {merged.merged} row(s) from {args.archive}; "
            f"skipped {merged.skipped_version} (other code version / "
            f"schema), {merged.skipped_invalid} invalid, "
            f"{merged.skipped_existing} already present"
        )
        return 0
    print(f"unknown store command {command!r}", file=sys.stderr)
    return 2


def _list() -> int:
    from repro.api import architectures
    from repro.experiments import all_experiments
    from repro.experiments.sweep import SWEEPS
    from repro.scenarios import load_shipped, shipped_scenario_names

    print("experiments:")
    for experiment in all_experiments():
        points = len(experiment.specs())
        suffix = (
            f"[{points} design points]" if points
            else f"[{experiment.category}]"
        )
        print(f"  {experiment.name}  {suffix}")
        print(f"      {experiment.title}")
    print("benchmarks:")
    for name in BENCHMARK_NAMES:
        print(f"  {name}")
    print("architectures:")
    for side in ("dcache", "icache"):
        for info in architectures(side):
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(info.defaults.items())
            )
            print(f"  {side}/{info.id}  [{defaults}]")
            print(f"      {info.description}")
    print("sweeps:")
    for name, description in SWEEPS.items():
        print(f"  {name}  — {description}")
    print("scenarios:")
    for name in shipped_scenario_names():
        scenario = load_shipped(name)
        print(f"  scenario:{name}  "
              f"[{len(scenario.specs())} design points]")
        print(f"      {scenario.description.splitlines()[0]}")
    return 0


def _run_bench(name: str) -> int:
    if name not in BENCHMARK_NAMES:
        print(f"unknown benchmark {name!r}; available: "
              f"{', '.join(BENCHMARK_NAMES)}", file=sys.stderr)
        return 2
    benchmark = get_benchmark(name)
    result = run_benchmark(name)
    benchmark.check(result)
    print(result.trace.summary())
    print("golden-model check: OK")
    mix = sorted(result.trace.mix.items(), key=lambda kv: -kv[1])[:8]
    rendered = ", ".join(f"{m}:{c}" for m, c in mix)
    print(f"top instructions: {rendered}")
    return 0


def _disasm(name: str) -> int:
    if name not in BENCHMARK_NAMES:
        print(f"unknown benchmark {name!r}", file=sys.stderr)
        return 2
    print(get_benchmark(name).build().disassemble())
    return 0


def _profile(name: str) -> int:
    if name not in BENCHMARK_NAMES:
        print(f"unknown benchmark {name!r}", file=sys.stderr)
        return 2
    from repro.sim import profile_trace, recommend_mab
    from repro.workloads import load_workload

    workload = load_workload(name)
    profile = profile_trace(workload.trace)
    print(profile.report())
    nt, ns = recommend_mab(profile)
    print(f"  suggested D-cache MAB: {nt}x{ns} "
          "(verify with examples/mab_design_space.py)")
    return 0


def _export_trace(name: str, output: str) -> int:
    if name not in BENCHMARK_NAMES:
        print(f"unknown benchmark {name!r}", file=sys.stderr)
        return 2
    from repro.sim import save_traces
    from repro.workloads import load_workload

    workload = load_workload(name)
    save_traces(output, workload.trace, workload.fetch)
    print(f"wrote {output}: {len(workload.trace.data)} data accesses, "
          f"{len(workload.fetch)} fetch accesses")
    return 0


def _trace_summary(argv: List[str]) -> int:
    """``repro trace summary FILE``: aggregate a span trace file.

    The file is the JSONL written via ``$REPRO_TRACE_FILE``; the
    summary is a per-span-name table of counts and total/self/min/max
    durations.
    """
    from repro.telemetry.tracing import (
        load_trace_file, render_trace_summary,
    )

    wants_help = argv[:1] and argv[0] in ("-h", "--help")
    if wants_help or len(argv) != 1:
        stream = sys.stdout if wants_help else sys.stderr
        print("usage: repro trace summary FILE", file=stream)
        print("  FILE: JSONL span trace written via $REPRO_TRACE_FILE",
              file=stream)
        return 0 if wants_help else 2
    try:
        records = load_trace_file(argv[0])
    except OSError as exc:
        print(f"cannot read trace file: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_trace_summary(records))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["sweep"]:
        # Forward everything verbatim (argparse.REMAINDER cannot pass
        # through leading options like --experiment).
        from repro.experiments import sweep

        return sweep.main(argv[1:])
    if argv[:1] == ["search"]:
        from repro.scenarios import search

        return search.main(argv[1:])
    if argv[:2] == ["trace", "summary"]:
        # ``trace <benchmark>`` exports .npz traces; ``trace summary
        # FILE`` aggregates a telemetry span file.  Dispatch before
        # argparse so the benchmark-oriented parser never sees it.
        return _trace_summary(argv[2:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Way memoization for low-power caches "
            "(Ishihara & Fallah, DATE 2005) - reproduction harness"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list experiments and benchmarks")

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="+",
        help="experiment names, or 'all'",
    )
    run_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a schema-versioned JSON document (rows + rendered "
             "tables) instead of plain tables",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="prefetch pool size for spec-declaring experiments "
             "(default: 1 = serial; 0 = all cores)",
    )
    run_parser.add_argument(
        "--url", default=None, metavar="URL",
        help="evaluate design points on a running service "
             "(repro serve) and tabulate locally",
    )

    eval_parser = sub.add_parser(
        "eval", help="evaluate declarative run specs (JSON)"
    )
    eval_parser.add_argument(
        "spec",
        help="a RunSpec JSON object or array, @file, or '-' for stdin",
    )
    eval_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for spec batches "
             "(default: 1 = serial; 0 = all cores)",
    )
    eval_parser.add_argument(
        "--indent", type=int, default=2,
        help="JSON indentation of the output (default: 2)",
    )

    bench_parser = sub.add_parser(
        "bench", help="execute and verify one benchmark"
    )
    bench_parser.add_argument("benchmark")

    disasm_parser = sub.add_parser(
        "disasm", help="disassemble a benchmark"
    )
    disasm_parser.add_argument("benchmark")

    profile_parser = sub.add_parser(
        "profile", help="profile a benchmark's execution"
    )
    profile_parser.add_argument("benchmark")

    trace_parser = sub.add_parser(
        "trace",
        help="export a benchmark's traces to .npz "
             "('trace summary FILE' aggregates a telemetry trace)",
    )
    trace_parser.add_argument("benchmark")
    trace_parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: <benchmark>.npz)",
    )

    report_parser = sub.add_parser(
        "report", help="run every experiment into a markdown report"
    )
    report_parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment subset (default: every registered experiment)",
    )
    report_parser.add_argument(
        "-o", "--output", default=None,
        help="write to a file instead of stdout",
    )
    report_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="prefetch pool size (default: all cores; 1 = serial)",
    )
    report_parser.add_argument(
        "--url", default=None, metavar="URL",
        help="evaluate design points on a running service "
             "(repro serve) and render locally (byte-identical)",
    )

    sub.add_parser(
        "sweep", add_help=False,
        help="parallel design-space sweeps (repro sweep --help)",
    )

    sub.add_parser(
        "search", add_help=False,
        help="hunt adversarial synthetic scenarios "
             "(repro search --help)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP batch-evaluation service"
    )
    serve_parser.add_argument(
        "--host", default=None,
        help="bind address (default: loopback)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 8323; 0 = pick a free port)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="default pool size for batches that do not name one "
             "(default: 0 = all cores)",
    )
    serve_parser.add_argument(
        "--port-file", default=None, metavar="FILE",
        help="write the bound port here once listening (for --port 0)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true",
        help="log each request to stderr",
    )
    serve_parser.add_argument(
        "--job-db", default=None, metavar="FILE",
        help="durable job-queue database (default: $REPRO_JOB_DB, "
             "else jobs.sqlite next to the result store)",
    )
    serve_parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per simulation before its worker "
             "subprocess is killed and the task retried (default: 300)",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per task before it dead-letters (default: 3)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="outstanding tasks beyond which new submissions are "
             "load-shed with 503 + Retry-After (default: 1024)",
    )

    submit_parser = sub.add_parser(
        "submit", help="evaluate run specs via a running service"
    )
    submit_parser.add_argument(
        "spec",
        help="a RunSpec JSON object or array, @file, or '-' for stdin",
    )
    submit_parser.add_argument(
        "--url", default=None,
        help="service endpoint (default: http://127.0.0.1:8323)",
    )
    submit_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="advisory remote pool size (the server's worker pool "
             "owns concurrency)",
    )
    submit_parser.add_argument(
        "--async", action="store_true", dest="as_async",
        help="submit a durable job and print its id immediately "
             "(poll with 'repro jobs ID --wait')",
    )
    submit_parser.add_argument(
        "--indent", type=int, default=2,
        help="JSON indentation of the output (default: 2)",
    )

    jobs_parser = sub.add_parser(
        "jobs", help="inspect the service's durable job queue"
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None,
        help="job id to show (default: list recent jobs)",
    )
    jobs_parser.add_argument(
        "--url", default=None,
        help="service endpoint (default: http://127.0.0.1:8323)",
    )
    jobs_parser.add_argument(
        "--wait", action="store_true",
        help="poll the job to completion and print its results "
             "(resumes across transient outages)",
    )
    jobs_parser.add_argument(
        "--indent", type=int, default=2,
        help="JSON indentation of the output (default: 2)",
    )

    store_parser = sub.add_parser(
        "store", help="inspect the persistent result store"
    )
    store_sub = store_parser.add_subparsers(dest="store_command")
    store_sub.add_parser(
        "stats", help="entry counts, file size, process hit/miss"
    )
    gc_parser = store_sub.add_parser(
        "gc", help="drop rows from older code versions / schemas "
                   "(plus LRU eviction with --max-rows / --max-age)"
    )
    gc_parser.add_argument(
        "--max-rows", type=int, default=None, metavar="N",
        help="additionally evict least-recently-used rows beyond N",
    )
    gc_parser.add_argument(
        "--max-age", type=float, default=None, metavar="DAYS",
        help="additionally evict rows not used for DAYS days",
    )
    export_parser = store_sub.add_parser(
        "export", help="dump current-code results as JSON lines"
    )
    export_parser.add_argument(
        "-o", "--output", default=None,
        help="write to a file instead of stdout",
    )
    import_parser = store_sub.add_parser(
        "import", help="merge a 'store export' archive into this store"
    )
    import_parser.add_argument(
        "archive", help="path to a JSON-lines export archive"
    )

    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.command == "list":
        return _list()
    if args.command == "run":
        workers = None if args.workers == 0 else args.workers
        return _run_experiments(
            args.experiments, as_json=args.as_json, workers=workers,
            url=args.url,
        )
    if args.command == "eval":
        workers = None if args.workers == 0 else args.workers
        return _eval_specs(args.spec, workers, args.indent)
    if args.command == "bench":
        return _run_bench(args.benchmark)
    if args.command == "disasm":
        return _disasm(args.benchmark)
    if args.command == "profile":
        return _profile(args.benchmark)
    if args.command == "trace":
        output = args.output or f"{args.benchmark}.npz"
        return _export_trace(args.benchmark, output)
    if args.command == "report":
        from repro.experiments import report

        unknown = [
            n for n in args.experiments if n not in EXPERIMENTS
        ]
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        try:
            report.main(
                output=args.output, workers=args.workers,
                url=args.url, experiments=args.experiments or None,
            )
        except Exception as exc:   # noqa: BLE001 — remote failures only
            if args.url is None:
                raise
            return _report_service_failure(args.url, exc)
        return 0
    if args.command == "serve":
        from repro.service import DEFAULT_HOST, DEFAULT_PORT, serve
        from repro.service.server import (
            DEFAULT_QUEUE_LIMIT,
            DEFAULT_TASK_TIMEOUT,
        )

        serve(
            host=DEFAULT_HOST if args.host is None else args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            workers=None if args.workers == 0 else args.workers,
            verbose=args.verbose,
            port_file=args.port_file,
            job_db=args.job_db,
            task_timeout=(
                DEFAULT_TASK_TIMEOUT if args.task_timeout is None
                else args.task_timeout
            ),
            max_attempts=args.max_attempts,
            queue_limit=(
                DEFAULT_QUEUE_LIMIT if args.queue_limit is None
                else args.queue_limit
            ),
        )
        return 0
    if args.command == "submit":
        from repro.service import DEFAULT_HOST, DEFAULT_PORT

        url = args.url or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
        return _submit_specs(
            args.spec, url, args.workers, args.indent,
            as_async=args.as_async,
        )
    if args.command == "jobs":
        from repro.service import DEFAULT_HOST, DEFAULT_PORT

        url = args.url or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
        return _jobs_command(url, args.job_id, args.wait, args.indent)
    if args.command == "store":
        if not args.store_command:
            store_parser.print_help()
            return 1
        return _store_command(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

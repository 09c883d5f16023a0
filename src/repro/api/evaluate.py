"""``evaluate(spec) -> RunResult``: the one evaluation entry point.

Resolves a :class:`~repro.api.spec.RunSpec` against the central
registry into a design point, replays the workload through that
design's fast path (or its reference loop), prices the counters with
the paper's Equation (1) and returns a typed
:class:`~repro.api.result.RunResult`.  ``evaluate`` is a one-spec
``evaluate_many`` batch.  ``evaluate_many`` fans a batch out over the
shared :func:`~repro.api.parallel.parallel_map` harness (after
warming the trace cache in the parent), deduplicating repeated specs
and reducing in input order — results are byte-identical for any
worker count and for cold vs. warm trace caches.

Results are cached per process by canonical spec key, so the figure
experiments, the report generator and ad-hoc library callers share
one computation per design point.  Behind the per-process cache sits
the **persistent result store** (:mod:`repro.store`): misses read
through to the SQLite store (keyed by canonical spec JSON + result
schema version + code fingerprint) and fresh computations are written
back, so a warm store skips simulation entirely across processes, CI
runs and service restarts.  ``use_cache=False`` bypasses both layers —
that is what the determinism checks use to force real recomputation.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.config import CacheConfig
from repro.cache.stats import AccessCounters
from repro.energy import CachePowerModel, MABHardwareModel
from repro.replay.engine import DesignPoint, plan_groups, replay_specs
from repro.sim import fetch_stream
from repro.workloads import generate_synthetic, load_workload, parse_workload
from repro.workloads.synthetic import inject_stack_traffic

from repro.api.parallel import parallel_map, warm_trace_cache
from repro.api.registry import TECHNOLOGIES, get_architecture
from repro.api.result import RunResult
from repro.api.spec import (
    RunSpec,
    is_synthetic_workload,
    parse_synthetic_params,
)
from repro.telemetry import metrics as telemetry
from repro.telemetry.tracing import span as trace_span

#: Per-process result cache, keyed by canonical spec serialization.
_RESULTS: Dict[str, RunResult] = {}

#: Count of real simulations (``_run`` calls) in this process — the
#: assertable evidence that warm paths and pure tabulations never
#: simulate.  Pool workers count in their own processes, so a parent
#: that only fans out keeps its own count at zero.
_SIMULATIONS = 0


def simulation_count() -> int:
    """How many evaluations actually simulated in this process."""
    return _SIMULATIONS


@lru_cache(maxsize=None)
def _power_model(
    cache_config: CacheConfig, technology: str
) -> CachePowerModel:
    return CachePowerModel(cache_config, TECHNOLOGIES[technology])


def _resolve_stream(side: str, workload: str) -> Tuple[object, int]:
    """The access stream and cycle base a (cache side, workload)
    defines — the one place a spec's workload becomes a stream.

    Benchmarks use the VLIW fetch model's cycle count, whatever their
    stream modifiers: ``packet=N`` re-derives the fetch stream from
    the program's flow trace and ``stack=F`` injects seeded stack
    traffic into its data trace, and neither changes the program's
    run time.  Synthetic workloads have no program behind them, so
    one access per cycle is the (documented) time base.  The replay
    engine's column cache (:func:`repro.replay.engine._columns_cached`)
    resolves through here too, so a replay group derives its stream
    once.
    """
    if is_synthetic_workload(workload):
        stream = generate_synthetic(side, parse_synthetic_params(workload))
        return stream, len(stream)
    name = parse_workload(workload)
    loaded = load_workload(name.program)
    if side == "dcache":
        stream = inject_stack_traffic(loaded.trace.data, name.stack)
    elif name.packet == loaded.fetch.packet_bytes:
        stream = loaded.fetch
    else:
        stream = fetch_stream(loaded.trace.flow, name.packet)
    return stream, loaded.cycles


def _begin_simulation() -> None:
    """Account one real simulation (and run the chaos slow-sim hook)."""
    global _SIMULATIONS
    _SIMULATIONS += 1
    telemetry.counter(
        "repro_simulations_total",
        "Real simulations performed (cache hits never count).",
    ).inc()
    # Chaos hook: an injected slow simulation exercises the service's
    # timeout/lease machinery without touching the result's bytes.
    from repro.testing import faults

    faults.sleep_if_slow()


class CounterInvariantError(RuntimeError):
    """A design point's counters break an invariant that every correct
    simulation obeys; the result is refused before it can be stored."""


def _check_counters(
    spec: RunSpec, point: DesignPoint, counters: AccessCounters
) -> None:
    """Raise :class:`CounterInvariantError` naming ``spec`` and the
    first invariant ``counters`` break on ``point``'s cache.

    Paper-mode way memoization can go stale (a key refreshed through
    another set keeps its tag entry while its line is evicted), so
    stale hits are rejected only in ``evict_hook`` mode.
    """
    c = counters
    ways = point.cache.ways
    checks = (
        ("hits + misses = accesses",
         c.cache_hits + c.cache_misses == c.accesses),
        ("loads + stores = accesses",
         spec.cache != "dcache" or c.loads + c.stores == c.accesses),
        ("mab_hits + stale_hits + mab_bypasses <= mab_lookups "
         "<= accesses",
         c.mab_hits + c.stale_hits + c.mab_bypasses
         <= c.mab_lookups <= c.accesses),
        ("tag_accesses <= ways x accesses",
         c.tag_accesses <= ways * c.accesses),
        ("way_accesses <= (ways + 1) x accesses",
         c.way_accesses <= (ways + 1) * c.accesses),
        ("zero stale hits in evict_hook mode",
         not c.stale_hits
         or point.mab is None or point.mab.consistency != "evict_hook"),
    )
    for name, holds in checks:
        if not holds:
            raise CounterInvariantError(
                f"{spec.key()}: counters break '{name}'"
            )


def _finish_result(
    spec: RunSpec,
    info,
    point: DesignPoint,
    counters: AccessCounters,
    cycles: int,
) -> RunResult:
    """Check counters, price them with Equation (1) and wrap them as a
    RunResult.

    Shared tail of the reference engine (:func:`_run`) and the replay
    engine (:func:`repro.replay.engine.replay_specs`) — one pricing
    implementation keeps the two byte-identical, and every result
    passes :func:`_check_counters` before a caller can store it.  The
    cache geometry, the MAB and the side structure all come from the
    spec's resolved ``point``.
    """
    _check_counters(spec, point, counters)
    mab = point.mab
    power = _power_model(point.cache, spec.technology).power(
        counters,
        cycles,
        label=spec.arch,
        mab_model=(
            None if mab is None
            else MABHardwareModel(mab.tag_entries, mab.index_entries)
        ),
        aux_bits=None if info.aux_bits is None else info.aux_bits(point),
    )
    return RunResult(
        spec=spec, counters=counters, power=power, cycles=cycles
    )


def _run(spec: RunSpec) -> RunResult:
    """Simulate one reference-engine spec (no caching).

    Runs the design's ``process_reference`` loop, the executable
    specification, on a controller built from the spec's resolved
    design point.  Fast-engine specs never come here: they replay in
    groups through :func:`~repro.replay.engine.replay_specs`.
    """
    with trace_span(
        "simulate", cache=spec.cache, arch=spec.arch,
        workload=spec.workload, engine=spec.engine,
    ):
        _begin_simulation()
        info = get_architecture(spec.cache, spec.arch)
        point = info.design_point(spec.param_dict)
        stream, cycles = _resolve_stream(spec.cache, spec.workload)
        controller = info.controller_class().from_point(point)
        counters = controller.process_reference(stream)
        return _finish_result(spec, info, point, counters, cycles)


def _default_store():
    """The persistent result store, or None (lazy import: repro.store
    depends on this package's result/spec modules)."""
    from repro.store import default_store

    return default_store()


#: Distinct store-failure messages already warned about, per process.
#: A broken store fails identically on every operation; one line per
#: distinct failure keeps a 10k-spec sweep's stderr readable.
_STORE_WARNINGS: set = set()


def _warn_store_unavailable(exc: BaseException) -> None:
    """Warn about a failing store once per distinct failure message."""
    message = f"warning: result store unavailable: {exc}"
    if message not in _STORE_WARNINGS:
        _STORE_WARNINGS.add(message)
        print(message, file=sys.stderr)


def _store_op(fn, fallback):
    """Best-effort persistence: a failing store (lock starvation, full
    or read-only disk) degrades to a rate-limited warning — it must
    never fail an evaluation whose simulation already succeeded."""
    import sqlite3

    try:
        return fn()
    except (sqlite3.Error, OSError) as exc:
        _warn_store_unavailable(exc)
        return fallback


def evaluate(spec: RunSpec, use_cache: bool = True) -> RunResult:
    """Evaluate one design point: a one-spec :func:`evaluate_many`
    batch, run in this process.

    Results are cached per process by spec key; misses read through to
    the persistent result store and fresh computations are written
    back, so a later process asking the same question of the same code
    skips the simulation entirely.
    """
    return evaluate_many([spec], workers=1, use_cache=use_cache)[0]


def _evaluate_task(payloads: Tuple[str, ...]) -> List[RunResult]:
    """Worker entry point for one planned group of JSON specs.

    Round-tripping the specs through their serialized form in every
    worker keeps the wire format honest.  A fast-engine group — specs
    sharing (cache side, workload), as planned by
    :func:`repro.replay.engine.plan_groups` — replays the workload
    once; reference-engine specs are always planned alone.
    """
    specs = [RunSpec.from_json(payload) for payload in payloads]
    if specs[0].engine == "reference":
        return [_run(spec) for spec in specs]
    return replay_specs(specs)


def evaluate_many(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    use_cache: bool = True,
) -> List[RunResult]:
    """Evaluate a batch, fanned out over the shared pool harness.

    Duplicate specs are computed once; the returned list is in input
    order regardless of worker count, so any reduction over it is
    deterministic.  The parent warms the on-disk trace cache for the
    batch's benchmarks before forking, so workers never run the ISS.
    Fresh fast-engine specs sharing (cache side, workload) are routed
    through the single-pass replay engine as one task; the results are
    byte-identical to evaluating each spec alone.

    ``use_cache=False`` bypasses both cache layers completely: no
    reads from the per-process cache or the store, no write-back.
    """
    specs = list(specs)
    with trace_span("evaluate_many", batch=len(specs)) as batch_span:
        keys = [spec.key() for spec in specs]
        fresh: Dict[str, RunSpec] = {}
        for spec, key in zip(specs, keys):
            if key not in fresh and not (use_cache and key in _RESULTS):
                fresh[key] = spec
        memo_hits = len(set(keys)) - len(fresh)
        telemetry.counter(
            "repro_evaluate_memo_hits_total",
            "Evaluations served from the per-process result cache.",
        ).inc(memo_hits)
        telemetry.histogram(
            "repro_evaluate_batch_size",
            "Unique design points per evaluate_many call.",
            buckets=telemetry.SIZE_BUCKETS,
        ).observe(len(set(keys)))
        store = _default_store() if use_cache else None
        stored: Dict[str, RunResult] = {}
        if fresh and store is not None:
            stored = _store_op(
                lambda: store.get_many(list(fresh.values())), {}
            )
            for key in stored:
                fresh.pop(key, None)
        batch_span.set_attribute("memo_hits", memo_hits)
        batch_span.set_attribute("store_hits", len(stored))
        batch_span.set_attribute("fresh", len(fresh))
        if fresh:
            warm_trace_cache(tuple(dict.fromkeys(
                spec.workload for spec in fresh.values()
                if not spec.is_synthetic
            )))
            groups = plan_groups(list(fresh.values()))
            grouped_results = parallel_map(
                _evaluate_task,
                [tuple(spec.to_json() for spec in group)
                 for group in groups],
                workers,
            )
            computed = {
                spec.key(): result
                for group, results in zip(groups, grouped_results)
                for spec, result in zip(group, results)
            }
            if store is not None:
                _store_op(
                    lambda: store.put_many(computed.values()), None
                )
        else:
            computed = {}
        computed.update(stored)
        if use_cache:
            _RESULTS.update(computed)
            return [_RESULTS[key] for key in keys]
        return [computed[key] for key in keys]


def clear_result_cache() -> None:
    """Drop every cached result (tests and long-lived services)."""
    _RESULTS.clear()
    _STORE_WARNINGS.clear()

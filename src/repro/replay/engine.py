"""Multi-architecture replay engine: N architectures, one pass.

This is the one fast engine.  Every design has exactly two
implementations: its readable ``process_reference`` (the executable
specification) and one fast path that only this engine drives.
Every controller inherits the one shared :meth:`Controller.process`,
a singleton :func:`replay_counters` call, and ``evaluate`` routes
every fast-engine spec through :func:`replay_specs`, so a design
point computes the same way alone or inside a batch.

Two layers:

* :func:`replay_counters` — the kernel-level engine.  Given built
  controllers and one access stream, it partitions them into
  *batchable* architectures (marked ``replay_batchable``: their cache
  access stream is independent of any auxiliary state, so identical
  geometry + replacement policy means identical per-access outcomes)
  and stateful ones.  Batchable controllers sharing a (geometry,
  policy name) share literally one
  :meth:`~repro.cache.cache.SetAssociativeCache.access_fast_batch`
  sweep over a fresh shadow cache; every member derives its counters
  from the shared packed results via its ``replay_counters`` hook and
  is itself left untouched.  That covers every design but the filter
  cache, whose L0 invalidations feed back into what its L1 sees: it
  replays on its own instance, fed from the shared
  :mod:`~repro.replay.columns` pre-split (``process_columns``).

* :func:`replay_specs` — the spec-level engine behind ``evaluate`` and
  ``evaluate_many``.  All specs must share one ``(cache side,
  workload)``; the workload's columns are resolved once (through the
  in-process column cache) and every spec's counters are priced into
  a :class:`~repro.api.result.RunResult`, so grouping can never change
  a byte.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import SharedPass, columns_for_stream
from repro.telemetry import metrics as telemetry
from repro.telemetry.tracing import span as trace_span


# ----------------------------------------------------------------------
# kernel-level engine
# ----------------------------------------------------------------------

class Controller:
    """Base of every cache controller: the one shared fast ``process``.

    A subclass provides ``process_reference`` plus at most one fast
    path for the engine: ``replay_counters(cols, shared)`` when it sets
    ``replay_batchable`` (a pure derivation from a shared sweep, which
    must neither read nor write the controller's own state), or
    ``process_columns(cols)`` for a stateful design.
    """

    #: Whether the design's cache access stream is independent of its
    #: side structures (see :func:`replay_counters`).
    replay_batchable = False

    def process(self, stream) -> AccessCounters:
        """Replay ``stream`` and return the counters (fast engine).

        Batchable designs — all but the filter cache — sweep a shadow
        cache and leave this instance untouched, so every call starts
        from a cold cache; the filter cache replays on this instance,
        so successive calls carry its cache and L0 state forward.
        """
        return replay_counters([self], stream)[0]


def replay_counters(
    controllers: Sequence[Controller], stream, cols=None
) -> List[AccessCounters]:
    """Replay ``stream`` through every controller in one pass.

    Returns one :class:`~repro.cache.stats.AccessCounters` per
    controller, in input order, byte-identical to running each
    controller's ``process_reference`` on a fresh instance.  Batchable
    controllers are evaluated on throwaway shadow caches and keep
    their own state untouched; stateful ones replay on themselves.
    Given ``cols`` (the stream's pre-split columns), ``stream`` is
    not read.
    """
    if cols is None:
        cols = columns_for_stream(stream)
    out: List[AccessCounters] = [None] * len(controllers)
    shared: Dict[Tuple[CacheConfig, str], List[int]] = {}
    singles: List[int] = []
    for index, controller in enumerate(controllers):
        if controller.replay_batchable:
            cache = controller.cache
            key = (cache.config, cache.policy.name)
            shared.setdefault(key, []).append(index)
        else:
            singles.append(index)

    for (config, policy), members in shared.items():
        shadow = SetAssociativeCache(
            config, make_policy(policy, config.sets, config.ways)
        )
        packed = shadow.access_fast_batch(
            cols.tags_array(config.offset_bits, config.index_bits),
            cols.sets_array(config.offset_bits, config.index_bits),
            cols.store_mask,
        )
        shared_pass = SharedPass(
            packed, [controllers[index] for index in members]
        )
        telemetry.counter(
            "repro_replay_shared_sweeps_total",
            "Shared cache sweeps performed by the replay engine.",
        ).inc()
        telemetry.counter(
            "repro_replay_shared_members_total",
            "Controllers served by a shared sweep instead of "
            "replaying their own loop.",
        ).inc(len(members))
        for index in members:
            out[index] = controllers[index].replay_counters(
                cols, shared_pass
            )

    if shared:
        telemetry.counter(
            "repro_replay_batchable_members_total",
            "Group members whose counters were derived from a shared "
            "batch sweep.",
        ).inc(sum(len(members) for members in shared.values()))
    if singles:
        telemetry.counter(
            "repro_replay_stateful_members_total",
            "Group members that replayed their own stateful loop "
            "(columnar or scalar).",
        ).inc(len(singles))
    for index in singles:
        out[index] = controllers[index].process_columns(cols)
    return out


# ----------------------------------------------------------------------
# spec-level engine
# ----------------------------------------------------------------------

def plan_groups(specs: Sequence[object]) -> List[List[object]]:
    """Partition unique specs into replay groups and singletons.

    Fast-engine specs sharing ``(cache side, workload)`` replay the
    same stream and form one group; reference-engine specs stay
    singletons.  Output order is by first appearance, so the plan —
    and therefore every downstream byte — is a pure function of the
    input sequence.
    """
    groups: List[List[object]] = []
    by_key: Dict[Tuple[str, str], List[object]] = {}
    for spec in specs:
        if spec.engine == "fast":
            key = (spec.cache, spec.workload)
            group = by_key.get(key)
            if group is None:
                group = []
                by_key[key] = group
                groups.append(group)
            group.append(spec)
        else:
            groups.append([spec])
    size_histogram = telemetry.histogram(
        "repro_replay_group_size",
        "Specs per planned replay group.",
        buckets=telemetry.SIZE_BUCKETS,
    )
    grouped = telemetry.counter(
        "repro_replay_grouped_specs_total",
        "Specs placed in a multi-spec replay group.",
    )
    for group in groups:
        size_histogram.observe(len(group))
        if len(group) > 1:
            grouped.inc(len(group))
    return groups


def _evaluate_module():
    """``repro.api.evaluate`` itself: ``repro.api`` re-exports the
    evaluate *function* under the submodule's name, so plain import
    syntax resolves to the function."""
    return importlib.import_module("repro.api.evaluate")


@lru_cache(maxsize=1)
def _columns_cached(side: str, workload: str):
    """Columns and cycle base for one spec-level workload (in-process
    cache).

    The stream comes from the evaluator's one resolver, so a group
    resolves (and a synthetic group generates) its stream once.  The
    cache key is (side, workload) — never the cache geometry — so a
    parametric sweep over MAB or cache shapes shares one columns
    object, and the columns object itself memoizes each derived array
    under the narrowest geometry key it depends on.  Only the most
    recent stream is kept: :func:`plan_groups` gives each stream one
    group per batch, so a batch over many streams holds one stream's
    arrays at a time instead of all of them.
    """
    stream, cycles = _evaluate_module()._resolve_stream(side, workload)
    return columns_for_stream(stream), cycles


def clear_columns_cache() -> None:
    """Drop the in-process columns cache (tests)."""
    _columns_cached.cache_clear()


def replay_specs(specs: Sequence[object]) -> List[object]:
    """Evaluate a shared-workload spec group in one pass.

    All specs must share ``(cache side, workload)`` and use the fast
    engine (:func:`plan_groups` guarantees this).  Returns one
    :class:`~repro.api.result.RunResult` per spec, in input order,
    byte-identical to evaluating each spec as its own singleton group.
    """
    from repro.api.registry import get_architecture

    _evaluate = _evaluate_module()

    specs = list(specs)
    first = specs[0]
    for spec in specs[1:]:
        if (spec.cache, spec.workload) != (first.cache, first.workload):
            raise ValueError(
                "replay group mixes workloads: "
                f"{(first.cache, first.workload)} vs "
                f"{(spec.cache, spec.workload)}"
            )
    with trace_span(
        "replay_group", cache=first.cache, workload=first.workload,
        members=len(specs),
    ):
        cols, cycles = _columns_cached(first.cache, first.workload)

        built = []
        for spec in specs:
            _evaluate._begin_simulation()
            info = get_architecture(spec.cache, spec.arch)
            params = spec.param_dict
            built.append((spec, info, params, info.build(params)))

        counters = replay_counters(
            [controller for (_, _, _, controller) in built],
            None, cols,
        )
        return [
            _evaluate._finish_result(spec, info, params, c, cycles)
            for (spec, info, params, _), c in zip(built, counters)
        ]

"""Multi-architecture replay engine: N architectures, one pass.

This is the one fast engine.  Every design has exactly two
implementations: its readable ``process_reference`` (the executable
specification) and one fast path, a function of (columns, shared
sweep, design point) that its class registers with
:func:`fast_path` and that only this engine drives.  Every controller
inherits the one shared :meth:`Controller.process`, a singleton
:func:`replay_counters` call, and ``evaluate`` routes every
fast-engine spec through :func:`replay_specs`, so a design point
computes the same way alone or inside a batch.

Three layers:

* :func:`derive_counters` — the kernel-level engine over ``(fast
  path, design point)`` members.  Members sharing a (geometry, policy
  name) share one :class:`~repro.replay.columns.SharedPass`: literally
  one :meth:`~repro.cache.cache.SetAssociativeCache.access_fast_batch`
  sweep over a fresh shadow cache, run when a member first reads it.
  Each member derives its counters from the stream's
  :mod:`~repro.replay.columns` and that pass, so no controller
  instance takes part.  The filter cache never reads the pass: its L0
  hits skip L1, so it walks its own L1 stream over a shadow cache of
  its own, and a group of filter caches alone runs no shared sweep.

* :func:`replay_counters` — the same over built controllers: each
  contributes its fast path and :meth:`Controller.design_point` and
  is itself left untouched.

* :func:`replay_specs` — the spec-level engine behind ``evaluate`` and
  ``evaluate_many``.  All specs must share one ``(cache side,
  workload)``; the workload's columns are resolved once (through the
  in-process column cache), each spec's design point is resolved once
  from its params without building a controller, and every spec's
  counters are priced from that point into a
  :class:`~repro.api.result.RunResult`, so grouping can never change a
  byte.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence,
    Tuple,
)

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import SharedPass, columns_for_stream
from repro.sim.fetch import FetchStream
from repro.telemetry import metrics as telemetry
from repro.telemetry.tracing import span as trace_span

if TYPE_CHECKING:
    from repro.core.mab import MABConfig


# ----------------------------------------------------------------------
# kernel-level engine
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DesignPoint:
    """One design point, as its fast path reads it.

    The cache geometry and replacement policy, the MAB of a way-memo
    design, and the entry count of a side structure (the set buffer's
    sets, the line buffer's lines, the filter cache's L0 lines).
    :meth:`~repro.api.registry.ArchitectureInfo.design_point` resolves
    one from a spec's params, :meth:`Controller.design_point` reads one
    off a built controller, and :meth:`Controller.from_point` builds
    one.
    """

    cache: CacheConfig
    policy: str = "lru"
    mab: Optional[MABConfig] = None
    entries: int = 0


#: A design's fast path: (columns, shared sweep, design point) ->
#: counters.
FastPath = Callable[[object, SharedPass, DesignPoint], AccessCounters]


class Controller:
    """Base of every cache controller: the one shared fast ``process``.

    A subclass provides ``process_reference`` plus exactly one fast
    path for the engine: a function of (columns, shared sweep, design
    point) registered beside its class with :func:`fast_path`.  The
    function receives no instance, so it can neither read nor write a
    controller's state.  A ``process_reference`` loop that reads only
    addresses and store flags takes them from :func:`stream_accesses`,
    so one class serves either cache.
    """

    #: The fast path (see :func:`fast_path`).
    derive: Optional[FastPath] = None

    @classmethod
    def from_point(cls, point: DesignPoint) -> "Controller":
        """A fresh controller of ``point`` (a design without side
        structure parameters takes the cache and policy)."""
        return cls(point.cache, policy=point.policy)

    def design_point(self) -> DesignPoint:
        """The design point this controller was built for."""
        return DesignPoint(
            self.cache_config, self.cache.policy.name,
            getattr(self, "mab_config", None),
        )

    def process(self, stream) -> AccessCounters:
        """Replay ``stream`` and return the counters (fast engine).

        The fast path derives from this controller's design point over
        shadow caches and leaves the instance untouched, so every call
        starts from a cold cache (and, for the filter cache, an empty
        L0).
        """
        return replay_counters([self], stream)[0]


def stream_accesses(
    stream, counters: AccessCounters
) -> Iterable[Tuple[int, bool]]:
    """The ``(address, is_store)`` pairs of ``stream``, in order.

    A :class:`~repro.sim.trace.DataTrace` gives its effective addresses
    and store flags; a :class:`~repro.sim.fetch.FetchStream` gives its
    fetch addresses, and a fetch is always a load.  Adds the stream's
    ``accesses`` to ``counters``, and its ``loads`` / ``stores`` for a
    data trace only: the reference-side twin of the columns'
    ``apply_load_store``, so a fetch stream's counters keep
    ``loads == stores == 0``.
    """
    addrs = stream.addr.tolist()
    counters.accesses += len(addrs)
    if isinstance(stream, FetchStream):
        return zip(addrs, repeat(False))
    stores = stream.num_stores
    counters.stores += stores
    counters.loads += len(addrs) - stores
    return zip(addrs, stream.store.tolist())


def fast_path(*classes: type) -> Callable[[FastPath], FastPath]:
    """Register the decorated function as the fast path of ``classes``.

    The function maps (the stream's columns, the
    :class:`~repro.replay.columns.SharedPass` of the cache sweep it
    shares, its :class:`DesignPoint`) to the design's counters, which
    must equal a fresh controller's ``process_reference`` counters.
    """

    def register(derive: FastPath) -> FastPath:
        for cls in classes:
            cls.derive = staticmethod(derive)
        return derive

    return register


def _sweep(cols, config: CacheConfig, policy: str):
    """The packed results of one shadow-cache sweep over ``cols``."""
    telemetry.counter(
        "repro_replay_shared_sweeps_total",
        "Shared cache sweeps performed by the replay engine.",
    ).inc()
    shadow = SetAssociativeCache(
        config, make_policy(policy, config.sets, config.ways)
    )
    return shadow.access_fast_batch(
        cols.tags_array(config.offset_bits, config.index_bits),
        cols.sets_array(config.offset_bits, config.index_bits),
    )


def derive_counters(
    members: Sequence[Tuple[FastPath, DesignPoint]], cols
) -> List[AccessCounters]:
    """Counters of every ``(fast path, design point)`` member over the
    stream ``cols`` splits.

    Returns one :class:`~repro.cache.stats.AccessCounters` per member,
    in input order, byte-identical to running each design's
    ``process_reference`` on a fresh controller.  Members sharing a
    (geometry, policy name) derive from one shared sweep, run the
    first time one of them reads it.
    """
    groups: Dict[Tuple[CacheConfig, str], List[int]] = {}
    for index, (_, point) in enumerate(members):
        groups.setdefault((point.cache, point.policy), []).append(index)
    out: List[AccessCounters] = [None] * len(members)
    for (config, policy), indices in groups.items():
        shared = SharedPass(
            partial(_sweep, cols, config, policy),
            [members[index][1] for index in indices],
        )
        for index in indices:
            derive, point = members[index]
            out[index] = derive(cols, shared, point)
    if members:
        telemetry.counter(
            "repro_replay_batchable_members_total",
            "Group members whose counters were derived by their "
            "registered fast path.",
        ).inc(len(members))
    return out


def replay_counters(
    controllers: Sequence[Controller], stream
) -> List[AccessCounters]:
    """Replay ``stream`` through every built controller in one pass.

    :func:`derive_counters` over each controller's fast path and
    :meth:`Controller.design_point`; the controllers keep their own
    state untouched.
    """
    return derive_counters(
        [
            (controller.derive, controller.design_point())
            for controller in controllers
        ],
        columns_for_stream(stream),
    )


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

        resolved = []
        for spec in specs:
            _evaluate._begin_simulation()
            info = get_architecture(spec.cache, spec.arch)
            resolved.append(
                (spec, info, info.design_point(spec.param_dict))
            )

        counters = derive_counters(
            [
                (info.controller_class().derive, point)
                for (_, info, point) in resolved
            ],
            cols,
        )
        return [
            _evaluate._finish_result(spec, info, point, c, cycles)
            for (spec, info, point), c in zip(resolved, counters)
        ]

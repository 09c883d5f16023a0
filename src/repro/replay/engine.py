"""Multi-architecture replay engine: N architectures, one pass.

This is the one fast engine.  Every design has exactly two
implementations: its readable ``process_reference`` (the executable
specification) and one fast path that only this engine drives.
Every controller inherits the one shared :meth:`Controller.process`,
a singleton :func:`replay_counters` call, and ``evaluate`` routes
every fast-engine spec through :func:`replay_specs`, so a design
point computes the same way alone or inside a batch.

Three layers:

* :func:`derive_counters` — the kernel-level engine.  Its members are
  *batchable* designs as ``(fast path, design point)`` pairs (a design
  is batchable when its cache access stream is independent of any
  auxiliary state, so identical geometry + replacement policy means
  identical per-access outcomes) and built stateful controllers.
  Batchable members sharing a (geometry, policy name) share literally
  one :meth:`~repro.cache.cache.SetAssociativeCache.access_fast_batch`
  sweep over a fresh shadow cache; each derives its counters from the
  shared packed results through the function its class registers with
  :func:`fast_path`, so no controller instance takes part.  That
  covers every design but the filter cache, whose L0 invalidations
  feed back into what its L1 sees: it replays on its own instance, fed
  from the shared :mod:`~repro.replay.columns` pre-split
  (``process_columns``).

* :func:`replay_counters` — the same over built controllers: a
  batchable controller contributes its fast path and
  :meth:`Controller.design_point` and is itself left untouched.

* :func:`replay_specs` — the spec-level engine behind ``evaluate`` and
  ``evaluate_many``.  All specs must share one ``(cache side,
  workload)``; the workload's columns are resolved once (through the
  in-process column cache), each batchable spec's design point is
  resolved from its params without building a controller, and every
  spec's counters are priced into a
  :class:`~repro.api.result.RunResult`, so grouping can never change a
  byte.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.stats import AccessCounters
from repro.replay.columns import SharedPass, columns_for_stream
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


#: A batchable design's fast path: (columns, shared sweep, design
#: point) -> counters.
FastPath = Callable[[object, SharedPass, DesignPoint], AccessCounters]


class Controller:
    """Base of every cache controller: the one shared fast ``process``.

    A subclass provides ``process_reference`` plus exactly one fast
    path for the engine.  A batchable design registers a function of
    (columns, shared sweep, design point) beside its class with
    :func:`fast_path`; it receives no instance, so it can neither read
    nor write a controller's state.  A stateful design provides
    ``process_columns(cols)`` instead and replays on itself.
    """

    #: The batchable fast path (see :func:`fast_path`), or None for a
    #: stateful design.
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

        Batchable designs — all but the filter cache — sweep a shadow
        cache and leave this instance untouched, so every call starts
        from a cold cache; the filter cache replays on this instance,
        so successive calls carry its cache and L0 state forward.
        """
        return replay_counters([self], stream)[0]


def fast_path(*classes: type) -> Callable[[FastPath], FastPath]:
    """Register the decorated function as the fast path of ``classes``.

    The function maps (the stream's columns, the
    :class:`~repro.replay.columns.SharedPass` of the cache sweep it
    shares, its :class:`DesignPoint`) to the design's counters, which
    must equal a fresh controller's ``process_reference`` counters.
    Registering it marks the classes batchable.
    """

    def register(derive: FastPath) -> FastPath:
        for cls in classes:
            cls.derive = staticmethod(derive)
        return derive

    return register


#: One member of :func:`derive_counters`: a batchable design's
#: ``(fast path, design point)``, or a built stateful controller.
Member = Union[Tuple[FastPath, DesignPoint], Controller]


def derive_counters(members: Sequence[Member], cols) -> List[AccessCounters]:
    """Counters of every member over the stream ``cols`` splits.

    Returns one :class:`~repro.cache.stats.AccessCounters` per member,
    in input order, byte-identical to running each design's
    ``process_reference`` on a fresh controller.  Batchable members
    derive from one shared sweep per (geometry, policy name); stateful
    controllers replay on themselves.
    """
    out: List[AccessCounters] = [None] * len(members)
    shared: Dict[Tuple[CacheConfig, str], List[int]] = {}
    singles: List[int] = []
    for index, member in enumerate(members):
        if isinstance(member, Controller):
            singles.append(index)
        else:
            point = member[1]
            shared.setdefault((point.cache, point.policy), []).append(index)

    for (config, policy), indices in shared.items():
        shadow = SetAssociativeCache(
            config, make_policy(policy, config.sets, config.ways)
        )
        packed = shadow.access_fast_batch(
            cols.tags_array(config.offset_bits, config.index_bits),
            cols.sets_array(config.offset_bits, config.index_bits),
            cols.store_mask,
        )
        shared_pass = SharedPass(
            packed, [members[index][1] for index in indices]
        )
        telemetry.counter(
            "repro_replay_shared_sweeps_total",
            "Shared cache sweeps performed by the replay engine.",
        ).inc()
        telemetry.counter(
            "repro_replay_shared_members_total",
            "Controllers served by a shared sweep instead of "
            "replaying their own loop.",
        ).inc(len(indices))
        for index in indices:
            derive, point = members[index]
            out[index] = derive(cols, shared_pass, point)

    if shared:
        telemetry.counter(
            "repro_replay_batchable_members_total",
            "Group members whose counters were derived from a shared "
            "batch sweep.",
        ).inc(sum(len(indices) for indices in shared.values()))
    if singles:
        telemetry.counter(
            "repro_replay_stateful_members_total",
            "Group members that replayed their own stateful loop "
            "(columnar or scalar).",
        ).inc(len(singles))
    for index in singles:
        out[index] = members[index].process_columns(cols)
    return out


def replay_counters(
    controllers: Sequence[Controller], stream, cols=None
) -> List[AccessCounters]:
    """Replay ``stream`` through every built controller in one pass.

    :func:`derive_counters` over the controllers: a batchable one
    takes part as its fast path and :meth:`Controller.design_point`
    and keeps its own state untouched; a stateful one replays on
    itself.  Given ``cols`` (the stream's pre-split columns),
    ``stream`` is not read.
    """
    if cols is None:
        cols = columns_for_stream(stream)
    return derive_counters(
        [
            controller if controller.derive is None
            else (controller.derive, controller.design_point())
            for controller in controllers
        ],
        cols,
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
            params = spec.param_dict
            derive = info.controller_class().derive
            member = (
                info.build(params) if derive is None
                else (derive, info.design_point(params))
            )
            resolved.append((spec, info, params, member))

        counters = derive_counters(
            [member for (_, _, _, member) in resolved], cols
        )
        return [
            _evaluate._finish_result(spec, info, params, c, cycles)
            for (spec, info, params, _), c in zip(resolved, counters)
        ]

"""The versioned declarative scenario format.

A scenario document looks like::

    {
      "scenario_version": 1,
      "name": "thrash-adversarial",
      "title": "Adversarial MAB thrash",
      "description": "...",
      "architectures": {
        "dcache": [
          "original",
          {"arch": "way-memo", "params": {"tag_entries": 2}},
          {"arch": "way-memo",
           "sweep": {"index_entries": [4, 8, 16]}}
        ]
      },
      "workloads": ["synthetic:kind=mab-thrash,num_accesses=8000"],
      "engine": "fast",
      "technology": "frv",
      "invariants": [
        {"kind": "no_slowdown", "cache": "dcache", "arch": "original"}
      ]
    }

Validation is eager and total: unknown fields at any level, a bad
schema version, unknown metrics or invariant kinds, and architecture
or workload names the registry rejects all fail at load time with the
offending field named — never inside a worker.  ``to_dict`` emits the
canonical form (sorted sweep axes, plain strings for parameter-less
entries), and every shipped file is stored canonically, so
``file → Scenario → canonical_json()`` is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult, average

#: Version of the scenario document layout.
SCENARIO_SCHEMA_VERSION = 1

#: The sides a scenario may target, in canonical order.
_SIDES = ("dcache", "icache")

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")


class ScenarioError(ValueError):
    """A scenario document failed validation."""


class ScenarioInvariantError(RuntimeError):
    """A scenario's declared invariant does not hold on the results."""


#: Metrics an invariant (and the scenario table) may reference, each a
#: pure function of one :class:`RunResult`.
METRICS: Dict[str, Callable[[RunResult], float]] = {
    "total_mw": lambda r: r.power.total_mw,
    "mab_hit_rate": lambda r: r.counters.mab_hit_rate,
    "cache_hit_rate": lambda r: r.counters.cache_hit_rate,
    "tags_per_access": lambda r: r.counters.tags_per_access,
    "ways_per_access": lambda r: r.counters.ways_per_access,
    "miss_rate": lambda r: (
        r.counters.cache_misses / r.counters.accesses
        if r.counters.accesses else 0.0
    ),
    "extra_cycles": lambda r: float(r.counters.extra_cycles),
    "slowdown_pct": lambda r: (
        100.0 * r.counters.extra_cycles / r.cycles if r.cycles else 0.0
    ),
}

_INVARIANT_FIELDS = {
    "no_slowdown": {"kind", "cache", "arch"},
    "metric_le": {"kind", "cache", "arch", "metric", "ref_arch",
                  "factor"},
    "metric_range": {"kind", "cache", "arch", "metric", "min", "max"},
}

_INVARIANT_REQUIRED = {
    "no_slowdown": {"kind", "cache", "arch"},
    "metric_le": {"kind", "cache", "arch", "metric", "ref_arch"},
    "metric_range": {"kind", "cache", "arch", "metric"},
}


def _reject_unknown(payload: Mapping[str, Any], allowed: set,
                    what: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ScenarioError(
            f"unknown {what} field(s): {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


@dataclass(frozen=True)
class ArchEntry:
    """One architecture in a scenario, with params and sweep axes."""

    arch: str
    params: Tuple[Tuple[str, Any], ...] = ()
    sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    @classmethod
    def from_value(cls, value: Any) -> "ArchEntry":
        if isinstance(value, str):
            return cls(arch=value)
        if not isinstance(value, Mapping):
            raise ScenarioError(
                f"architecture entries must be strings or objects, "
                f"got {value!r}"
            )
        _reject_unknown(value, {"arch", "params", "sweep"},
                        "architecture entry")
        if "arch" not in value or not isinstance(value["arch"], str):
            raise ScenarioError(
                f"architecture entry needs a string 'arch', "
                f"got {value!r}"
            )
        params = value.get("params") or {}
        sweep = value.get("sweep") or {}
        if not isinstance(params, Mapping):
            raise ScenarioError(
                f"'params' of {value['arch']!r} must be an object"
            )
        if not isinstance(sweep, Mapping):
            raise ScenarioError(
                f"'sweep' of {value['arch']!r} must be an object "
                f"mapping parameter -> list of values"
            )
        axes = []
        for param, values in sorted(sweep.items()):
            if (not isinstance(values, Sequence)
                    or isinstance(values, str) or not values):
                raise ScenarioError(
                    f"sweep axis {param!r} of {value['arch']!r} must "
                    f"be a non-empty list of values"
                )
            axes.append((str(param), tuple(values)))
        overlap = set(params) & {param for param, _ in axes}
        if overlap:
            raise ScenarioError(
                f"parameter(s) {sorted(overlap)} of {value['arch']!r} "
                f"appear in both 'params' and 'sweep'"
            )
        return cls(
            arch=value["arch"],
            params=tuple(sorted((str(k), v) for k, v in params.items())),
            sweep=tuple(axes),
        )

    def points(self) -> List[Dict[str, Any]]:
        """Every concrete parameter dict this entry expands to."""
        base = dict(self.params)
        if not self.sweep:
            return [base]
        names = [param for param, _ in self.sweep]
        axes = [values for _, values in self.sweep]
        return [
            {**base, **dict(zip(names, combo))}
            for combo in itertools.product(*axes)
        ]

    def label(self, point: Mapping[str, Any]) -> str:
        """Display label for one expanded point."""
        if not point:
            return self.arch
        inner = ",".join(f"{k}={v}" for k, v in sorted(point.items()))
        return f"{self.arch}[{inner}]"

    def to_value(self) -> Any:
        """Canonical serialized form (a plain string when possible)."""
        if not self.params and not self.sweep:
            return self.arch
        doc: Dict[str, Any] = {"arch": self.arch}
        if self.params:
            doc["params"] = dict(self.params)
        if self.sweep:
            doc["sweep"] = {
                param: list(values) for param, values in self.sweep
            }
        return doc


@dataclass(frozen=True, eq=False)
class Scenario:
    """One validated scenario: workload mix x architecture set."""

    name: str
    title: str
    architectures: Tuple[Tuple[str, Tuple[ArchEntry, ...]], ...]
    workloads: Tuple[str, ...]
    description: str = ""
    engine: str = "fast"
    technology: str = "frv"
    invariants: Tuple[Mapping[str, Any], ...] = ()
    #: Spec list per (side, entry, point), computed eagerly so a bad
    #: scenario fails at load time; same flat order as ``specs()``.
    _expanded: Tuple[Tuple[str, ArchEntry, Dict[str, Any],
                           Tuple[RunSpec, ...]], ...] = field(
        default=(), repr=False, compare=False)

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ScenarioError(
                f"scenario name {self.name!r} must match "
                f"{_NAME_RE.pattern}"
            )
        if not self.workloads:
            raise ScenarioError("scenario declares no workloads")
        if not self.architectures:
            raise ScenarioError("scenario declares no architectures")
        expanded = []
        for side, entries in self.architectures:
            if side not in _SIDES:
                raise ScenarioError(
                    f"architectures side must be one of {_SIDES}, "
                    f"not {side!r}"
                )
            if not entries:
                raise ScenarioError(
                    f"architectures[{side!r}] is empty"
                )
            for entry in entries:
                for point in entry.points():
                    # RunSpec construction *is* the deep validation:
                    # arch ids, parameter names, workload syntax.
                    try:
                        specs = tuple(
                            RunSpec(
                                cache=side, arch=entry.arch,
                                workload=workload, params=point,
                                engine=self.engine,
                                technology=self.technology,
                            )
                            for workload in self.workloads
                        )
                    except (KeyError, ValueError) as exc:
                        raise ScenarioError(
                            f"scenario {self.name!r}: invalid design "
                            f"point {entry.label(point)}: {exc}"
                        ) from None
                    expanded.append((side, entry, point, specs))
        object.__setattr__(self, "_expanded", tuple(expanded))
        self._validate_invariants()

    def _entry_labels(self, side: str) -> List[str]:
        return [
            entry.label(point)
            for s, entry, point, _ in self._expanded if s == side
        ]

    def _validate_invariants(self) -> None:
        for inv in self.invariants:
            kind = inv.get("kind")
            if kind not in _INVARIANT_FIELDS:
                raise ScenarioError(
                    f"unknown invariant kind {kind!r}; available: "
                    f"{sorted(_INVARIANT_FIELDS)}"
                )
            _reject_unknown(inv, _INVARIANT_FIELDS[kind],
                            f"invariant ({kind})")
            missing = _INVARIANT_REQUIRED[kind] - set(inv)
            if missing:
                raise ScenarioError(
                    f"invariant ({kind}) is missing field(s): "
                    f"{sorted(missing)}"
                )
            side = inv["cache"]
            sides = {s for s, _ in self.architectures}
            if side not in sides:
                raise ScenarioError(
                    f"invariant references side {side!r} but the "
                    f"scenario only targets {sorted(sides)}"
                )
            if "metric" in inv and inv["metric"] not in METRICS:
                raise ScenarioError(
                    f"unknown invariant metric {inv['metric']!r}; "
                    f"available: {sorted(METRICS)}"
                )
            labels = self._entry_labels(side)
            for key in ("arch", "ref_arch"):
                if key in inv and inv[key] not in labels:
                    raise ScenarioError(
                        f"invariant {key} {inv[key]!r} does not match "
                        f"any {side} design point; have: {labels}"
                    )

    # -- expansion ------------------------------------------------------

    def specs(self) -> List[RunSpec]:
        """Every design point, flat: side -> entry -> point -> workload."""
        return [
            spec
            for _, _, _, specs in self._expanded
            for spec in specs
        ]

    # -- tabulation -----------------------------------------------------

    def tabulate(self, results: ResultMap) -> ExperimentResult:
        """The scenario's table, pure over ``{spec.key(): RunResult}``.

        One aggregated row per design point (averaged over the
        workload mix), then the declared invariants are checked — a
        violated invariant raises :class:`ScenarioInvariantError`
        naming the scenario and the observed value, never a silently
        wrong table.
        """
        table = ExperimentResult(
            name=f"scenario:{self.name}",
            title=self.title,
            columns=(
                "cache", "architecture", "avg_power_mw",
                "avg_mab_hit_rate", "avg_tags_per_access",
                "avg_miss_rate", "avg_slowdown_pct",
            ),
        )
        point_results: Dict[Tuple[str, str], List[RunResult]] = {}
        for side, entry, point, specs in self._expanded:
            rs = [spec_result(results, spec) for spec in specs]
            point_results[(side, entry.label(point))] = rs
            table.add_row(
                cache=side,
                architecture=entry.label(point),
                avg_power_mw=average(
                    [METRICS["total_mw"](r) for r in rs]),
                avg_mab_hit_rate=average(
                    [METRICS["mab_hit_rate"](r) for r in rs]),
                avg_tags_per_access=average(
                    [METRICS["tags_per_access"](r) for r in rs]),
                avg_miss_rate=average(
                    [METRICS["miss_rate"](r) for r in rs]),
                avg_slowdown_pct=average(
                    [METRICS["slowdown_pct"](r) for r in rs]),
            )
        if self.description:
            table.notes.append(self.description)
        table.notes.append(
            f"{len(point_results)} design points x "
            f"{len(self.workloads)} workloads"
        )
        for inv in self.invariants:
            table.notes.append(
                "invariant ok: " + self._check_invariant(
                    inv, point_results)
            )
        return table

    def _check_invariant(
        self, inv: Mapping[str, Any],
        point_results: Mapping[Tuple[str, str], List[RunResult]],
    ) -> str:
        """Check one invariant; return its note or raise."""
        kind = inv["kind"]
        side = inv["cache"]
        rs = point_results[(side, inv["arch"])]
        if kind == "no_slowdown":
            extra = sum(r.counters.extra_cycles for r in rs)
            if extra:
                self._invariant_failed(
                    inv, f"observed {extra} extra cycles"
                )
            return (
                f"no_slowdown({side}/{inv['arch']}): 0 extra cycles"
            )
        metric = METRICS[inv["metric"]]
        value = average([metric(r) for r in rs])
        if kind == "metric_le":
            factor = float(inv.get("factor", 1.0))
            ref = average(
                [metric(r)
                 for r in point_results[(side, inv["ref_arch"])]]
            )
            bound = factor * ref
            if value > bound:
                self._invariant_failed(
                    inv,
                    f"observed {inv['metric']}={value:.6g} > "
                    f"{bound:.6g} ({inv['ref_arch']} x {factor:g})"
                )
            return (
                f"metric_le({side}/{inv['arch']}): "
                f"{inv['metric']}={value:.6g} <= {bound:.6g}"
            )
        # metric_range
        lo = inv.get("min")
        hi = inv.get("max")
        if lo is not None and value < lo:
            self._invariant_failed(
                inv, f"observed {inv['metric']}={value:.6g} < {lo:g}"
            )
        if hi is not None and value > hi:
            self._invariant_failed(
                inv, f"observed {inv['metric']}={value:.6g} > {hi:g}"
            )
        bounds = (
            f"[{'-inf' if lo is None else lo:}, "
            f"{'inf' if hi is None else hi}]"
        )
        return (
            f"metric_range({side}/{inv['arch']}): "
            f"{inv['metric']}={value:.6g} in {bounds}"
        )

    def _invariant_failed(self, inv: Mapping[str, Any],
                          detail: str) -> None:
        raise ScenarioInvariantError(
            f"scenario {self.name!r}: invariant "
            f"{json.dumps(dict(inv), sort_keys=True)} failed: {detail}"
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "scenario_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "architectures": {
                side: [entry.to_value() for entry in entries]
                for side, entries in self.architectures
            },
            "workloads": list(self.workloads),
            "engine": self.engine,
            "technology": self.technology,
        }
        if self.description:
            doc["description"] = self.description
        if self.invariants:
            doc["invariants"] = [dict(inv) for inv in self.invariants]
        return doc

    def canonical_json(self) -> str:
        """The canonical file serialization (stable bytes)."""
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True
        ) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        if not isinstance(payload, Mapping):
            raise ScenarioError(
                f"scenario document must be an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("scenario_version")
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported scenario_version {version!r} "
                f"(this build speaks {SCENARIO_SCHEMA_VERSION})"
            )
        _reject_unknown(
            payload,
            {"scenario_version", "name", "title", "description",
             "architectures", "workloads", "engine", "technology",
             "invariants"},
            "scenario",
        )
        for key in ("name", "title", "architectures", "workloads"):
            if key not in payload:
                raise ScenarioError(f"scenario is missing {key!r}")
        archs = payload["architectures"]
        if not isinstance(archs, Mapping):
            raise ScenarioError(
                "'architectures' must map cache side -> entry list"
            )
        architectures = tuple(
            (side, tuple(
                ArchEntry.from_value(value) for value in archs[side]
            ))
            for side in _SIDES if side in archs
        )
        if len(architectures) != len(archs):
            bad = sorted(set(archs) - set(_SIDES))
            raise ScenarioError(
                f"architectures side must be one of {_SIDES}, "
                f"not {bad[0]!r}"
            )
        workloads = payload["workloads"]
        if (not isinstance(workloads, Sequence)
                or isinstance(workloads, str)
                or not all(isinstance(w, str) for w in workloads)):
            raise ScenarioError(
                "'workloads' must be a list of workload names"
            )
        invariants = payload.get("invariants") or ()
        if not isinstance(invariants, Sequence):
            raise ScenarioError("'invariants' must be a list")
        return cls(
            name=payload["name"],
            title=payload["title"],
            description=payload.get("description", ""),
            architectures=architectures,
            workloads=tuple(workloads),
            engine=payload.get("engine", "fast"),
            technology=payload.get("technology", "frv"),
            invariants=tuple(dict(inv) for inv in invariants),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}")
        return cls.from_dict(payload)


def scenario_experiment(scenario: Scenario) -> Experiment:
    """Wrap a scenario as a first-class registry experiment."""
    return Experiment(
        name=f"scenario:{scenario.name}",
        title=scenario.title,
        specs=scenario.specs,
        tabulate=scenario.tabulate,
        category="scenario",
    )

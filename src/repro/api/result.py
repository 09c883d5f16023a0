"""Typed, schema-versioned evaluation results.

A :class:`RunResult` bundles what the table/figure experiments consume
— raw :class:`~repro.cache.stats.AccessCounters`, the priced
:class:`~repro.energy.power.PowerBreakdown` and the run's cycle base —
together with the spec that produced it, and serializes to a stable
JSON document (sorted keys, versioned layout) so batches are
byte-comparable across worker counts, processes and machines.

Schema (``schema_version`` = :data:`RESULT_SCHEMA_VERSION`)::

    {
      "schema_version": 1,
      "spec":       { ... RunSpec.to_dict() ... },
      "cycles":     <int>,       # program cycles (pre-penalty base)
      "counters":   { <raw integer counters> , "notes": {...} },
      "derived":    { tags_per_access, ways_per_access,
                      mab_hit_rate, cache_hit_rate, slowdown_pct },
      "power_mw":   { data, tag, aux, leakage, total }
    }

Bump :data:`RESULT_SCHEMA_VERSION` whenever a field is added, removed
or changes meaning; ``from_dict`` refuses documents from a different
version instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.cache.stats import COUNTER_FIELDS, AccessCounters
from repro.energy import PowerBreakdown

from repro.api.spec import RunSpec

#: Version of the serialized result layout.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunResult:
    """The outcome of evaluating one :class:`RunSpec`."""

    spec: RunSpec
    counters: AccessCounters
    power: PowerBreakdown
    cycles: int
    schema_version: int = RESULT_SCHEMA_VERSION

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        counters: Dict[str, Any] = {
            name: int(getattr(self.counters, name))
            for name in COUNTER_FIELDS
        }
        counters["notes"] = dict(self.counters.notes)
        return {
            "schema_version": self.schema_version,
            "spec": self.spec.to_dict(),
            "cycles": int(self.cycles),
            "counters": counters,
            "derived": {
                "tags_per_access": self.counters.tags_per_access,
                "ways_per_access": self.counters.ways_per_access,
                "mab_hit_rate": self.counters.mab_hit_rate,
                "cache_hit_rate": self.counters.cache_hit_rate,
                "slowdown_pct": (
                    100.0 * self.counters.extra_cycles / self.cycles
                    if self.cycles else 0.0
                ),
            },
            "power_mw": {
                "data": self.power.data_mw,
                "tag": self.power.tag_mw,
                "aux": self.power.aux_mw,
                "leakage": self.power.leakage_mw,
                "total": self.power.total_mw,
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema_version {version!r} "
                f"(this build speaks {RESULT_SCHEMA_VERSION})"
            )
        raw = dict(payload["counters"])
        notes = raw.pop("notes", {})
        counters = AccessCounters(**{
            name: int(raw[name]) for name in COUNTER_FIELDS
        })
        counters.notes.update(notes)
        spec = RunSpec.from_dict(payload["spec"])
        power = payload["power_mw"]
        return cls(
            spec=spec,
            counters=counters,
            power=PowerBreakdown(
                label=spec.arch,
                data_mw=power["data"],
                tag_mw=power["tag"],
                aux_mw=power["aux"],
                leakage_mw=power["leakage"],
            ),
            cycles=int(payload["cycles"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

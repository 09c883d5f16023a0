"""The declarative run specification: one (architecture x workload) point.

A :class:`RunSpec` names everything needed to reproduce one
evaluation — cache side, architecture id, architecture parameter
overrides, workload, simulation engine and technology model — and
round-trips losslessly through JSON, so the same design point can be
expressed from the library, the CLI (``repro eval``), a sweep batch or
a file on disk.

Specs are validated eagerly against the central registry at
construction: unknown sides, architectures, parameters, workloads,
engines and technologies all fail immediately with the list of valid
values, never deep inside a worker process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.registry import (
    CACHE_SIDES,
    TECHNOLOGIES,
    get_architecture,
)
from repro.workloads import BENCHMARK_NAMES, parse_workload

#: Version of the serialized spec layout.
SPEC_SCHEMA_VERSION = 1

#: The replay engine (:mod:`repro.replay.engine`) vs
#: ``process_reference()`` (object-API executable spec); both are
#: bit-for-bit equivalent by the differential tests, so ``fast`` is the
#: default.
ENGINES: Tuple[str, ...] = ("fast", "reference")

#: Prefix of synthetic workload names, e.g.
#: ``synthetic:num_accesses=4096,seed=7`` (dcache) or
#: ``synthetic:kind=mab-thrash,num_fetches=4096`` (icache) — the
#: reserved ``kind`` parameter selects a generator from
#: :func:`repro.workloads.synthetic_kinds` (original generators when
#: omitted); everything else is forwarded as keyword overrides.
SYNTHETIC_PREFIX = "synthetic"

_SCALARS = (int, float, str, bool)

ParamsLike = Union[
    Mapping[str, Any], Tuple[Tuple[str, Any], ...], None
]


def parse_synthetic_params(workload: str) -> Dict[str, Any]:
    """Parse ``synthetic[:k=v,...]`` into generator keyword overrides."""
    _, _, tail = workload.partition(":")
    params: Dict[str, Any] = {}
    for item in filter(None, tail.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(
                f"malformed synthetic workload parameter {item!r} "
                f"in {workload!r} (expected key=value)"
            )
        try:
            params[key.strip()] = int(value)
        except ValueError:
            try:
                params[key.strip()] = float(value)
            except ValueError:
                # Non-numeric values name things (e.g. kind=mab-thrash).
                params[key.strip()] = value.strip()
    return params


def _validate_synthetic(cache: str, workload: str) -> None:
    """Eagerly reject bad synthetic parameters (names and sizes).

    The generators themselves run lazily, possibly inside a pool
    worker; checking their keyword names and the stream size here
    keeps the failure at spec construction, with a usable message.
    """
    import inspect

    from repro.workloads import (
        KIND_PARAM,
        default_synthetic_kind,
        synthetic_generator,
        synthetic_kinds,
    )

    params = parse_synthetic_params(workload)
    kind = params.get(KIND_PARAM, default_synthetic_kind(cache))
    if not isinstance(kind, str):
        raise ValueError(
            f"synthetic {KIND_PARAM}= must name a generator, got "
            f"{kind!r}; available for {cache}: "
            f"{list(synthetic_kinds(cache))}"
        )
    # Raises KeyError listing the registered kinds on a bad name.
    generator = synthetic_generator(cache, kind)
    known = set(inspect.signature(generator).parameters)
    unknown = set(params) - known - {KIND_PARAM}
    if unknown:
        raise KeyError(
            f"unknown synthetic parameter(s) {sorted(unknown)} for "
            f"{cache} kind {kind!r}; known: {sorted(known)}"
        )
    for key, value in params.items():
        if key != KIND_PARAM and not isinstance(value, (int, float)):
            raise ValueError(
                f"synthetic parameter {key}= must be numeric, "
                f"got {value!r}"
            )
    for size_key in ("num_accesses", "num_blocks", "num_fetches"):
        if size_key in params and params[size_key] <= 0:
            raise ValueError(
                f"synthetic workload needs {size_key} > 0, "
                f"got {params[size_key]}"
            )


@dataclass(frozen=True)
class RunSpec:
    """One declarative evaluation: architecture x workload x models.

    ``params`` may be given as a mapping; it is canonicalised to a
    sorted tuple of pairs so specs are hashable and two specs with the
    same content always serialize to the same bytes.
    """

    cache: str
    arch: str
    workload: str
    params: ParamsLike = ()
    engine: str = "fast"
    technology: str = "frv"

    def __post_init__(self):
        params = self.params
        if params is None:
            params = {}
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = tuple(params)
        canonical = tuple(sorted((str(k), v) for k, v in items))
        object.__setattr__(self, "params", canonical)
        self._canonicalise_workload()
        self._validate()

    def _canonicalise_workload(self) -> None:
        """Collapse redundant ``:scale=1`` spellings to the base name.

        ``spec.key()`` is the content address for dedup and the
        persistent store, so two spellings of the same design point
        must serialize identically; malformed names are left for
        ``_validate`` to reject with its usual messages.
        """
        workload = self.workload
        if (not isinstance(workload, str) or ":" not in workload
                or self.is_synthetic):
            return
        try:
            base, scale = parse_workload(workload)
        except (KeyError, ValueError):
            return
        if scale == 1:
            object.__setattr__(self, "workload", base)

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if self.cache not in CACHE_SIDES:
            raise ValueError(
                f"cache must be one of {CACHE_SIDES}, not {self.cache!r}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, not {self.engine!r}"
            )
        if self.technology not in TECHNOLOGIES:
            raise ValueError(
                f"technology must be one of "
                f"{tuple(TECHNOLOGIES)}, not {self.technology!r}"
            )
        for key, value in self.params:
            if not isinstance(value, _SCALARS):
                raise ValueError(
                    f"parameter {key!r} must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )
        # Raises KeyError listing valid ids / parameter names.
        info = get_architecture(self.cache, self.arch)
        info.merged_params(self.param_dict)
        if self.is_synthetic:
            _validate_synthetic(self.cache, self.workload)
        else:
            # Benchmark names, optionally scaled ('compress:scale=4').
            # ValueError (bad suffix/scale) propagates with its message.
            try:
                parse_workload(self.workload)
            except KeyError:
                raise KeyError(
                    f"unknown workload {self.workload!r}; available: "
                    f"{BENCHMARK_NAMES} (':scale=N' for scalable ones) "
                    f"or '{SYNTHETIC_PREFIX}:...'"
                ) from None

    # -- accessors -----------------------------------------------------

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def is_synthetic(self) -> bool:
        return self.workload.split(":", 1)[0] == SYNTHETIC_PREFIX

    def key(self) -> str:
        """Canonical compact serialization (cache-key / dedup string)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_version": SPEC_SCHEMA_VERSION,
            "cache": self.cache,
            "arch": self.arch,
            "workload": self.workload,
            "params": self.param_dict,
            "engine": self.engine,
            "technology": self.technology,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        version = payload.get("spec_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported spec_version {version!r} "
                f"(this build speaks {SPEC_SCHEMA_VERSION})"
            )
        unknown = set(payload) - {
            "spec_version", "cache", "arch", "workload", "params",
            "engine", "technology",
        }
        if unknown:
            raise ValueError(f"unknown spec field(s): {sorted(unknown)}")
        return cls(
            cache=payload["cache"],
            arch=payload["arch"],
            workload=payload["workload"],
            params=payload.get("params") or {},
            engine=payload.get("engine", "fast"),
            technology=payload.get("technology", "frv"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

"""The central architecture registry.

Every cache architecture this repository can evaluate — the paper's
way-memoized controllers and all six comparison baselines — is
registered here exactly once, as an :class:`ArchitectureInfo`: the
controller class, the cache side it attaches to, JSON-serializable
parameter defaults, and the metadata the power model needs (MAB
geometry for way-memo variants, auxiliary storage bits for the
baselines' side structures).

This registry is the single source of truth: callers iterate
:func:`architectures`, resolve a spec's params into the
:class:`~repro.replay.engine.DesignPoint` that both the fast path and
the power model read (:meth:`ArchitectureInfo.design_point`; a
baseline's ``aux_bits`` formula prices its side structure from that
point), and take the baseline-comparison orderings
(``experiments/extension_baselines.py:D_ARCHS`` / ``I_ARCHS``) from
:func:`comparison_archs`.

Fixed-geometry labels like ``way-memo-2x8`` are presets: the same
controller as the parametric ``way-memo`` entry with pinned defaults.
``repro.api.evaluate`` resolves a :class:`~repro.api.spec.RunSpec`
against this registry, so registering a new architecture makes it
reachable from the library, ``repro eval``, ``repro list`` and the
sweep harness with no further plumbing.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple,
)

from repro.cache.config import FRV_DCACHE, FRV_ICACHE, CacheConfig
from repro.energy.technology import FRV_TECH, TechnologyParameters

if TYPE_CHECKING:
    from repro.replay.engine import DesignPoint

#: Valid values of ``RunSpec.cache``.
CACHE_SIDES: Tuple[str, ...] = ("dcache", "icache")

#: Registered technology/power models, keyed by ``RunSpec.technology``.
TECHNOLOGIES: Dict[str, TechnologyParameters] = {"frv": FRV_TECH}

#: The FR-V cache each side's specs run on, unless an entry's
#: geometry parameters override it.
SIDE_CACHES: Dict[str, CacheConfig] = {
    "dcache": FRV_DCACHE, "icache": FRV_ICACHE,
}

#: Spec parameters that choose the cache geometry;
#: :meth:`ArchitectureInfo.cache_config` resolves them.
GEOMETRY_PARAMS: Tuple[str, ...] = ("ways", "size_bytes")

#: Spec parameters that size a design's side structure: the set
#: buffer's sets, the line buffer's lines, the filter cache's L0 lines.
#: Each resolves to its design point's ``entries``.
ENTRY_PARAMS: Tuple[str, ...] = ("entries", "line_buffer_entries", "l0_lines")

#: Largest ``size_bytes`` a spec may ask for (an L1-sized 1 MiB, 32x
#: the FR-V cache): the replay arrays grow with the cache, so a
#: service must not accept an arbitrarily large one.
MAX_CACHE_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class ArchitectureInfo:
    """One registered architecture: controller class + metadata.

    ``controller`` is the dotted name of the controller class, imported
    only to build or derive one, so resolving and pricing specs never
    loads the controllers and NumPy.  ``defaults`` holds every
    parameter with its default value: the replacement ``policy``, the
    MAB's ``tag_entries`` / ``index_entries`` / ``consistency``, an
    :data:`ENTRY_PARAMS` side-structure size, and the
    :data:`GEOMETRY_PARAMS` of an entry whose cache geometry is a spec
    parameter; a :class:`~repro.api.spec.RunSpec` may override any
    subset of them (unknown keys are rejected at spec construction).
    ``uses_mab`` marks way-memo variants, whose design point carries a
    MAB that is priced with a
    :class:`~repro.energy.mab_model.MABHardwareModel` of its
    ``(tag_entries, index_entries)`` geometry; ``aux_bits`` maps a
    design point to the storage bits of a baseline's non-MAB side
    structure, priced as a small SRAM.
    """

    id: str
    side: str
    controller: str
    description: str
    defaults: Mapping[str, Any] = field(default_factory=dict)
    uses_mab: bool = False
    aux_bits: Optional[Callable[["DesignPoint"], int]] = None
    #: Position in the extension_baselines comparison (None = not in it).
    comparison_rank: Optional[int] = None
    #: Parametric entries (e.g. ``way-memo``) are the sweep surface
    #: rather than one fixed design point.
    parametric: bool = False

    def merged_params(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Defaults overlaid with ``params`` (unknown keys rejected)."""
        merged = dict(self.defaults)
        for key, value in (params or {}).items():
            if key not in merged:
                raise KeyError(
                    f"architecture {self.id!r} ({self.side}) has no "
                    f"parameter {key!r}; known: {sorted(merged)}"
                )
            merged[key] = value
        return merged

    def _resolve(
        self, params: Optional[Mapping[str, Any]]
    ) -> Tuple[Dict[str, Any], CacheConfig]:
        """(the other parameters, cache geometry) for ``params``."""
        merged = self.merged_params(params)
        frv = SIDE_CACHES[self.side]
        geometry = {
            key: merged.pop(key) for key in GEOMETRY_PARAMS
            if key in merged
        }
        if not geometry:
            return merged, frv
        for key, value in geometry.items():
            if type(value) is not int:
                raise ValueError(
                    f"{key} must be an integer, got {value!r}"
                )
        size_bytes = geometry.get("size_bytes", frv.size_bytes)
        ways = geometry.get("ways", frv.ways)
        if (size_bytes, ways) == (frv.size_bytes, frv.ways):
            return merged, frv
        cache = (
            f"no {ways}-way {size_bytes}-byte cache of "
            f"{frv.line_bytes}-byte lines"
        )
        if size_bytes > MAX_CACHE_BYTES:
            raise ValueError(
                f"{cache}: size_bytes is capped at {MAX_CACHE_BYTES}"
            )
        try:
            config = CacheConfig(size_bytes, ways, frv.line_bytes)
        except ValueError as exc:
            raise ValueError(f"{cache}: {exc}") from None
        return merged, config

    def cache_config(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> CacheConfig:
        """The cache geometry a spec with ``params`` runs on.

        The side's FR-V cache, with the ``ways`` / ``size_bytes``
        overrides of an entry that takes them (ValueError for a
        geometry that cannot exist, such as 3 ways).  The one place a
        spec's geometry resolves: spec validation reads it, and the
        design point (:meth:`design_point`) carries it to the fast
        path, Equation (1) pricing and the counter invariants.
        """
        return self._resolve(params)[1]

    def controller_class(self) -> type:
        """The controller class (imported on first use)."""
        module, _, name = self.controller.rpartition(".")
        return getattr(importlib.import_module(module), name)

    def design_point(self, params: Optional[Mapping[str, Any]] = None):
        """The :class:`~repro.replay.engine.DesignPoint` of ``params``.

        The one place a spec's design resolves: a design's fast path
        derives from it without a controller instance, :meth:`build`
        builds from it, and Equation (1) pricing reads its cache, MAB
        and side structure.
        """
        from repro.replay.engine import DesignPoint

        merged, cache_config = self._resolve(params)
        mab = None
        if self.uses_mab:
            from repro.core.mab import MABConfig

            mab = MABConfig(
                merged["tag_entries"], merged["index_entries"],
                merged["consistency"],
            )
        entries = 0
        for key in ENTRY_PARAMS:
            if key in merged:
                entries = merged[key]
                if entries < 1:
                    raise ValueError(
                        f"{key} must be at least 1, got {entries!r}"
                    )
        return DesignPoint(cache_config, merged["policy"], mab, entries)

    def build(self, params: Optional[Mapping[str, Any]] = None) -> object:
        """Construct a fresh controller with ``params`` overrides."""
        return self.controller_class().from_point(self.design_point(params))


_REGISTRY: Dict[Tuple[str, str], ArchitectureInfo] = {}


def register(info: ArchitectureInfo) -> ArchitectureInfo:
    """Add ``info`` to the registry (duplicate ids are an error)."""
    if info.side not in CACHE_SIDES:
        raise ValueError(f"unknown cache side {info.side!r}")
    key = (info.side, info.id)
    if key in _REGISTRY:
        raise ValueError(
            f"architecture {info.id!r} already registered for {info.side}"
        )
    _REGISTRY[key] = info
    return info


def get_architecture(side: str, arch_id: str) -> ArchitectureInfo:
    """Look up one architecture (KeyError with the known ids on miss)."""
    try:
        return _REGISTRY[(side, arch_id)]
    except KeyError:
        raise KeyError(
            f"unknown {side} architecture {arch_id!r}; "
            f"available: {architecture_ids(side)}"
        ) from None


def architecture_ids(side: str) -> Tuple[str, ...]:
    """Registered ids for one cache side, in registration order."""
    return tuple(
        info.id for (s, _), info in _REGISTRY.items() if s == side
    )


def architectures(side: Optional[str] = None) -> Tuple[ArchitectureInfo, ...]:
    """All registered architectures (optionally one side)."""
    return tuple(
        info for (s, _), info in _REGISTRY.items()
        if side is None or s == side
    )


def comparison_archs(side: str) -> Tuple[str, ...]:
    """The extension_baselines comparison set, in paper order."""
    ranked = [
        info for info in architectures(side)
        if info.comparison_rank is not None
    ]
    ranked.sort(key=lambda info: info.comparison_rank)
    return tuple(info.id for info in ranked)


# ----------------------------------------------------------------------
# registrations
# ----------------------------------------------------------------------

# ``controller`` names each entry's class; ``ArchitectureInfo.build``
# builds it from the resolved design point (the FR-V cache, or the
# parametric D-side ``way-memo`` entry's ``ways`` / ``size_bytes``),
# and tests build any entry on a tiny cache through
# ``Controller.from_point``.

#: Storage-bit formulas for the baselines' auxiliary structures, per
#: design point.
def _set_buffer_bits(point: "DesignPoint") -> int:
    # entries x (2 tags + index) per buffered set.
    return int(point.entries) * (2 * 18 + 9)


def _filter_cache_bits(point: "DesignPoint") -> int:
    # L0 lines x (32-byte data + tag).
    return int(point.entries) * (32 * 8 + 27)


def _way_prediction_bits(point: "DesignPoint") -> int:
    return 512 * 1                       # 1 prediction bit per set


def _ma_links_bits(point: "DesignPoint") -> int:
    # [11]: 2 links x (1 valid + 1 way bit) per line, every line.
    return 1024 * 2 * 2


def _mab_defaults(tag_entries: int, index_entries: int,
                  consistency: str = "paper") -> Dict[str, Any]:
    return {
        "tag_entries": tag_entries,
        "index_entries": index_entries,
        "consistency": consistency,
        "policy": "lru",
    }


# -- D-cache -----------------------------------------------------------

register(ArchitectureInfo(
    id="original", side="dcache", controller="repro.baselines.OriginalCache",
    description="conventional 2-way set-associative D-cache",
    defaults={"policy": "lru"}, comparison_rank=0,
))
register(ArchitectureInfo(
    id="set-buffer", side="dcache",
    controller="repro.baselines.SetBufferDCache",
    description="lightweight set buffer [14]",
    defaults={"entries": 2, "policy": "lru"},
    aux_bits=_set_buffer_bits,
))
register(ArchitectureInfo(
    id="way-memo-2x8", side="dcache", controller="repro.core.WayMemoDCache",
    description="way memoization, 2x8 MAB (the paper's D-cache pick)",
    defaults=_mab_defaults(2, 8), uses_mab=True, comparison_rank=4,
))
register(ArchitectureInfo(
    id="way-memo-2x8-evict", side="dcache",
    controller="repro.core.WayMemoDCache",
    description="2x8 MAB with the conservative eviction hook",
    defaults=_mab_defaults(2, 8, "evict_hook"), uses_mab=True,
))
register(ArchitectureInfo(
    id="way-memo+line-buffer", side="dcache",
    controller="repro.core.LineBufferWayMemoDCache",
    description="2x8 MAB combined with a line buffer (conclusion)",
    defaults={**_mab_defaults(2, 8), "line_buffer_entries": 1},
    uses_mab=True,
))
register(ArchitectureInfo(
    id="filter-cache", side="dcache",
    controller="repro.baselines.FilterCache",
    description="L0 filter cache [6] (extra cycle on L0 misses)",
    defaults={"l0_lines": 8, "policy": "lru"},
    aux_bits=_filter_cache_bits, comparison_rank=1,
))
register(ArchitectureInfo(
    id="way-prediction", side="dcache",
    controller="repro.baselines.WayPredictionCache",
    description="MRU way prediction [9] (extra cycle on mispredict)",
    defaults={"policy": "lru"}, aux_bits=_way_prediction_bits,
    comparison_rank=2,
))
register(ArchitectureInfo(
    id="two-phase", side="dcache", controller="repro.baselines.TwoPhaseCache",
    description="two-phase tag-then-way cache [8] (extra cycle always)",
    defaults={"policy": "lru"}, comparison_rank=3,
))
register(ArchitectureInfo(
    id="way-memo", side="dcache", controller="repro.core.WayMemoDCache",
    description=(
        "way memoization with a parametric (Nt, Ns) MAB and cache "
        "geometry"
    ),
    defaults={
        **_mab_defaults(2, 8),
        "ways": FRV_DCACHE.ways,
        "size_bytes": FRV_DCACHE.size_bytes,
    },
    uses_mab=True, parametric=True,
))

# -- I-cache -----------------------------------------------------------

register(ArchitectureInfo(
    id="original", side="icache", controller="repro.baselines.OriginalCache",
    description="conventional 2-way set-associative I-cache",
    defaults={"policy": "lru"}, comparison_rank=0,
))
register(ArchitectureInfo(
    id="panwar", side="icache", controller="repro.baselines.PanwarICache",
    description="intra-line sequential-fetch elision [4]",
    defaults={"policy": "lru"},
))
register(ArchitectureInfo(
    id="ma-links", side="icache", controller="repro.baselines.MaLinksICache",
    description="memory-address links [11]",
    defaults={"policy": "lru"}, aux_bits=_ma_links_bits,
    comparison_rank=1,
))
register(ArchitectureInfo(
    id="way-memo-2x8", side="icache", controller="repro.core.WayMemoICache",
    description="way memoization, 2x8 MAB",
    defaults=_mab_defaults(2, 8), uses_mab=True,
))
register(ArchitectureInfo(
    id="way-memo-2x16", side="icache", controller="repro.core.WayMemoICache",
    description="way memoization, 2x16 MAB (the paper's I-cache pick)",
    defaults=_mab_defaults(2, 16), uses_mab=True, comparison_rank=5,
))
register(ArchitectureInfo(
    id="way-memo-2x32", side="icache", controller="repro.core.WayMemoICache",
    description="way memoization, 2x32 MAB",
    defaults=_mab_defaults(2, 32), uses_mab=True,
))
register(ArchitectureInfo(
    id="way-memo-2x16-evict", side="icache",
    controller="repro.core.WayMemoICache",
    description="2x16 MAB with the conservative eviction hook",
    defaults=_mab_defaults(2, 16, "evict_hook"), uses_mab=True,
))
register(ArchitectureInfo(
    id="filter-cache", side="icache",
    controller="repro.baselines.FilterCache",
    description="L0 filter cache [6] (extra cycle on L0 misses)",
    defaults={"l0_lines": 8, "policy": "lru"},
    aux_bits=_filter_cache_bits, comparison_rank=2,
))
register(ArchitectureInfo(
    id="way-prediction", side="icache",
    controller="repro.baselines.WayPredictionCache",
    description="MRU way prediction [9] (extra cycle on mispredict)",
    defaults={"policy": "lru"}, aux_bits=_way_prediction_bits,
    comparison_rank=3,
))
register(ArchitectureInfo(
    id="two-phase", side="icache", controller="repro.baselines.TwoPhaseCache",
    description="two-phase tag-then-way cache [8] (extra cycle always)",
    defaults={"policy": "lru"}, comparison_rank=4,
))
register(ArchitectureInfo(
    id="way-memo", side="icache", controller="repro.core.WayMemoICache",
    description="way memoization with a parametric (Nt, Ns) MAB",
    defaults=_mab_defaults(2, 16), uses_mab=True, parametric=True,
))


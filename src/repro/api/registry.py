"""The central architecture registry.

Every cache architecture this repository can evaluate — the paper's
way-memoized controllers and all six comparison baselines — is
registered here exactly once, as an :class:`ArchitectureInfo`: a
factory accepting keyword parameters, the cache side it attaches to,
JSON-serializable parameter defaults, and the metadata the power model
needs (MAB geometry for way-memo variants, auxiliary storage bits for
the baselines' side structures).

This registry is the single source of truth: callers iterate
:func:`architectures`, read power-model metadata through
:meth:`ArchitectureInfo.resolved_aux_bits` /
:meth:`ArchitectureInfo.mab_geometry`, and take the baseline-comparison
orderings (``experiments/extension_baselines.py:D_ARCHS`` /
``I_ARCHS``) from :func:`comparison_archs`.

Fixed-geometry labels like ``way-memo-2x8`` are presets: the same
factory as the parametric ``way-memo`` entry with pinned defaults.
``repro.api.evaluate`` resolves a :class:`~repro.api.spec.RunSpec`
against this registry, so registering a new architecture makes it
reachable from the library, ``repro eval``, ``repro list`` and the
sweep harness with no further plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.baselines import (
    FilterCacheDCache,
    FilterCacheICache,
    MaLinksICache,
    OriginalDCache,
    OriginalICache,
    PanwarICache,
    SetBufferDCache,
    TwoPhaseDCache,
    TwoPhaseICache,
    WayPredictionDCache,
    WayPredictionICache,
)
from repro.cache.config import FRV_DCACHE, FRV_ICACHE, CacheConfig
from repro.core import (
    LineBufferWayMemoDCache,
    MABConfig,
    WayMemoDCache,
    WayMemoICache,
)
from repro.energy.technology import FRV_TECH, TechnologyParameters

#: Valid values of ``RunSpec.cache``.
CACHE_SIDES: Tuple[str, ...] = ("dcache", "icache")

#: Registered technology/power models, keyed by ``RunSpec.technology``.
TECHNOLOGIES: Dict[str, TechnologyParameters] = {"frv": FRV_TECH}

#: The FR-V cache each side's specs run on, unless an entry's
#: geometry parameters override it.
SIDE_CACHES: Dict[str, CacheConfig] = {
    "dcache": FRV_DCACHE, "icache": FRV_ICACHE,
}

#: Spec parameters that choose the cache geometry instead of reaching
#: the factory; :meth:`ArchitectureInfo.cache_config` resolves them.
GEOMETRY_PARAMS: Tuple[str, ...] = ("ways", "size_bytes")

#: Largest ``size_bytes`` a spec may ask for (an L1-sized 1 MiB, 32x
#: the FR-V cache): the replay arrays grow with the cache, so a
#: service must not accept an arbitrarily large one.
MAX_CACHE_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class ArchitectureInfo:
    """One registered architecture: factory + metadata.

    ``defaults`` holds every keyword the factory accepts with its
    default value, plus the :data:`GEOMETRY_PARAMS` of an entry whose
    cache geometry is a spec parameter; a
    :class:`~repro.api.spec.RunSpec` may override any subset of them
    (unknown keys are rejected at spec construction).
    ``uses_mab`` marks way-memo variants whose power is priced with a
    :class:`~repro.energy.mab_model.MABHardwareModel` of the resolved
    ``(tag_entries, index_entries)`` geometry; ``aux_bits`` prices a
    baseline's non-MAB side structure as a small SRAM.
    """

    id: str
    side: str
    factory: Callable[..., object]
    description: str
    defaults: Mapping[str, Any] = field(default_factory=dict)
    uses_mab: bool = False
    aux_bits: Optional[Callable[[Mapping[str, Any]], int]] = None
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
        """(factory keywords, cache geometry) for ``params``."""
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
        spec's geometry resolves: the controller (:meth:`build`),
        Equation (1) pricing and the counter invariants all read it.
        """
        return self._resolve(params)[1]

    def build(self, params: Optional[Mapping[str, Any]] = None) -> object:
        """Construct a fresh controller with ``params`` overrides."""
        factory_params, cache_config = self._resolve(params)
        return self.factory(cache_config=cache_config, **factory_params)

    def mab_geometry(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> Optional[Tuple[int, int]]:
        """Resolved (Nt, Ns) for way-memo variants, else None."""
        if not self.uses_mab:
            return None
        merged = self.merged_params(params)
        return (int(merged["tag_entries"]), int(merged["index_entries"]))

    def resolved_aux_bits(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> Optional[int]:
        """Auxiliary-structure storage bits for the resolved params."""
        if self.aux_bits is None:
            return None
        return self.aux_bits(self.merged_params(params))


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

# Like the controller classes, every factory takes the cache geometry
# as ``cache_config``: ``ArchitectureInfo.build`` passes the resolved
# one (the FR-V cache, or the parametric D-side ``way-memo`` entry's
# ``ways`` / ``size_bytes``), and tests build any entry on a tiny
# cache.

def _way_memo_dcache(tag_entries=2, index_entries=8, consistency="paper",
                     policy="lru", cache_config=FRV_DCACHE):
    return WayMemoDCache(
        cache_config,
        mab_config=MABConfig(tag_entries, index_entries, consistency),
        policy=policy,
    )


def _way_memo_icache(tag_entries=2, index_entries=16, consistency="paper",
                     policy="lru", cache_config=FRV_ICACHE):
    return WayMemoICache(
        cache_config,
        mab_config=MABConfig(tag_entries, index_entries, consistency),
        policy=policy,
    )


def _line_buffer_way_memo(tag_entries=2, index_entries=8,
                          consistency="paper", line_buffer_entries=1,
                          policy="lru", cache_config=FRV_DCACHE):
    return LineBufferWayMemoDCache(
        cache_config,
        mab_config=MABConfig(tag_entries, index_entries, consistency),
        line_buffer_entries=line_buffer_entries,
        policy=policy,
    )


#: Storage-bit formulas for the baselines' auxiliary structures, per
#: resolved parameters.
def _set_buffer_bits(params: Mapping[str, Any]) -> int:
    # entries x (2 tags + index) per buffered set.
    return int(params["entries"]) * (2 * 18 + 9)


def _filter_cache_bits(params: Mapping[str, Any]) -> int:
    # L0 lines x (32-byte data + tag).
    return int(params["l0_lines"]) * (32 * 8 + 27)


def _way_prediction_bits(params: Mapping[str, Any]) -> int:
    return 512 * 1                       # 1 prediction bit per set


def _ma_links_bits(params: Mapping[str, Any]) -> int:
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
    id="original", side="dcache", factory=OriginalDCache,
    description="conventional 2-way set-associative D-cache",
    defaults={"policy": "lru"}, comparison_rank=0,
))
register(ArchitectureInfo(
    id="set-buffer", side="dcache", factory=SetBufferDCache,
    description="lightweight set buffer [14]",
    defaults={"entries": 2, "policy": "lru"},
    aux_bits=_set_buffer_bits,
))
register(ArchitectureInfo(
    id="way-memo-2x8", side="dcache", factory=_way_memo_dcache,
    description="way memoization, 2x8 MAB (the paper's D-cache pick)",
    defaults=_mab_defaults(2, 8), uses_mab=True, comparison_rank=4,
))
register(ArchitectureInfo(
    id="way-memo-2x8-evict", side="dcache", factory=_way_memo_dcache,
    description="2x8 MAB with the conservative eviction hook",
    defaults=_mab_defaults(2, 8, "evict_hook"), uses_mab=True,
))
register(ArchitectureInfo(
    id="way-memo+line-buffer", side="dcache",
    factory=_line_buffer_way_memo,
    description="2x8 MAB combined with a line buffer (conclusion)",
    defaults={**_mab_defaults(2, 8), "line_buffer_entries": 1},
    uses_mab=True,
))
register(ArchitectureInfo(
    id="filter-cache", side="dcache", factory=FilterCacheDCache,
    description="L0 filter cache [6] (extra cycle on L0 misses)",
    defaults={"l0_lines": 8, "policy": "lru"},
    aux_bits=_filter_cache_bits, comparison_rank=1,
))
register(ArchitectureInfo(
    id="way-prediction", side="dcache", factory=WayPredictionDCache,
    description="MRU way prediction [9] (extra cycle on mispredict)",
    defaults={"policy": "lru"}, aux_bits=_way_prediction_bits,
    comparison_rank=2,
))
register(ArchitectureInfo(
    id="two-phase", side="dcache", factory=TwoPhaseDCache,
    description="two-phase tag-then-way cache [8] (extra cycle always)",
    defaults={"policy": "lru"}, comparison_rank=3,
))
register(ArchitectureInfo(
    id="way-memo", side="dcache", factory=_way_memo_dcache,
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
    id="original", side="icache", factory=OriginalICache,
    description="conventional 2-way set-associative I-cache",
    defaults={"policy": "lru"}, comparison_rank=0,
))
register(ArchitectureInfo(
    id="panwar", side="icache", factory=PanwarICache,
    description="intra-line sequential-fetch elision [4]",
    defaults={"policy": "lru"},
))
register(ArchitectureInfo(
    id="ma-links", side="icache", factory=MaLinksICache,
    description="memory-address links [11]",
    defaults={"policy": "lru"}, aux_bits=_ma_links_bits,
    comparison_rank=1,
))
register(ArchitectureInfo(
    id="way-memo-2x8", side="icache", factory=_way_memo_icache,
    description="way memoization, 2x8 MAB",
    defaults=_mab_defaults(2, 8), uses_mab=True,
))
register(ArchitectureInfo(
    id="way-memo-2x16", side="icache", factory=_way_memo_icache,
    description="way memoization, 2x16 MAB (the paper's I-cache pick)",
    defaults=_mab_defaults(2, 16), uses_mab=True, comparison_rank=5,
))
register(ArchitectureInfo(
    id="way-memo-2x32", side="icache", factory=_way_memo_icache,
    description="way memoization, 2x32 MAB",
    defaults=_mab_defaults(2, 32), uses_mab=True,
))
register(ArchitectureInfo(
    id="way-memo-2x16-evict", side="icache", factory=_way_memo_icache,
    description="2x16 MAB with the conservative eviction hook",
    defaults=_mab_defaults(2, 16, "evict_hook"), uses_mab=True,
))
register(ArchitectureInfo(
    id="filter-cache", side="icache", factory=FilterCacheICache,
    description="L0 filter cache [6] (extra cycle on L0 misses)",
    defaults={"l0_lines": 8, "policy": "lru"},
    aux_bits=_filter_cache_bits, comparison_rank=2,
))
register(ArchitectureInfo(
    id="way-prediction", side="icache", factory=WayPredictionICache,
    description="MRU way prediction [9] (extra cycle on mispredict)",
    defaults={"policy": "lru"}, aux_bits=_way_prediction_bits,
    comparison_rank=3,
))
register(ArchitectureInfo(
    id="two-phase", side="icache", factory=TwoPhaseICache,
    description="two-phase tag-then-way cache [8] (extra cycle always)",
    defaults={"policy": "lru"}, comparison_rank=4,
))
register(ArchitectureInfo(
    id="way-memo", side="icache", factory=_way_memo_icache,
    description="way memoization with a parametric (Nt, Ns) MAB",
    defaults=_mab_defaults(2, 16), uses_mab=True, parametric=True,
))


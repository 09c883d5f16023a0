"""Access-count bookkeeping shared by all cache architectures.

The paper's evaluation is phrased entirely in terms of *tag accesses
per cache access* and *ways accessed per cache access* (Figures 4 and
6) plus MAB activity (for its power).  :class:`AccessCounters`
accumulates exactly those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The raw integer fields of :class:`AccessCounters`, in serialization
#: order (``notes`` is the one other field).
COUNTER_FIELDS = (
    "accesses", "tag_accesses", "way_accesses", "cache_hits",
    "cache_misses", "loads", "stores", "mab_lookups", "mab_hits",
    "mab_bypasses", "stale_hits", "aux_accesses", "extra_cycles",
    "intra_line_hits",
)


@dataclass
class AccessCounters:
    """Tag/way/auxiliary access counts for one architecture on one trace.

    Attributes
    ----------
    accesses:
        Total cache accesses (loads+stores, or fetch packets).
    tag_accesses:
        Tag-array reads summed over ways (original 2-way load = 2).
    way_accesses:
        Data-array way reads/writes.
    cache_hits / cache_misses:
        Hit/miss counts of the underlying cache.
    mab_lookups / mab_hits / mab_bypasses:
        MAB activity; ``mab_bypasses`` counts large-displacement
        accesses that cannot use the MAB (paper: <1 %).
    stale_hits:
        MAB hits whose memoized line was NOT in the cache — must stay 0
        if the paper's consistency argument holds.
    aux_accesses:
        Auxiliary structure activity for baselines (set buffer probes,
        filter cache accesses, way-predictor reads, ...).
    extra_cycles:
        Performance penalty cycles (0 for the paper's technique by
        construction; nonzero for filter cache / way prediction /
        two-phase baselines).
    """

    accesses: int = 0
    tag_accesses: int = 0
    way_accesses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    loads: int = 0
    stores: int = 0
    mab_lookups: int = 0
    mab_hits: int = 0
    mab_bypasses: int = 0
    stale_hits: int = 0
    aux_accesses: int = 0
    extra_cycles: int = 0
    intra_line_hits: int = 0
    notes: dict = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def tags_per_access(self) -> float:
        """Average tag-array reads per cache access (Figure 4/6 y-axis)."""
        return self.tag_accesses / self.accesses if self.accesses else 0.0

    @property
    def ways_per_access(self) -> float:
        """Average data ways accessed per cache access (Figure 4/6)."""
        return self.way_accesses / self.accesses if self.accesses else 0.0

    @property
    def mab_hit_rate(self) -> float:
        return self.mab_hits / self.mab_lookups if self.mab_lookups else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

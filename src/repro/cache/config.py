"""Cache geometry and 32-bit address splitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

ADDRESS_BITS = 32

#: FR-V fetch packet size in bytes: two 32-bit instructions per cycle,
#: each packet one I-cache access.
DEFAULT_FETCH_BYTES = 8


def _log2_exact(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache.

    The paper's FR-V caches are ``CacheConfig(32 * 1024, 2, 32)``:
    512 sets, 5 offset bits, 9 index bits, 18 tag bits.
    """

    size_bytes: int
    ways: int
    line_bytes: int

    def __post_init__(self):
        _log2_exact(self.line_bytes, "line_bytes")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                "cache size must be a multiple of ways * line_bytes"
            )
        _log2_exact(self.sets, "number of sets")

    # -- derived geometry ------------------------------------------------

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def offset_bits(self) -> int:
        return _log2_exact(self.line_bytes, "line_bytes")

    @property
    def index_bits(self) -> int:
        return _log2_exact(self.sets, "sets")

    @property
    def tag_bits(self) -> int:
        return ADDRESS_BITS - self.index_bits - self.offset_bits

    @property
    def line_bits(self) -> int:
        """Data bits per line (the width of one way read)."""
        return 8 * self.line_bytes

    # -- address splitting -------------------------------------------------

    def split(self, addr: int) -> Tuple[int, int, int]:
        """Split an address into ``(tag, set_index, offset)``."""
        addr &= 0xFFFFFFFF
        offset = addr & (self.line_bytes - 1)
        set_index = (addr >> self.offset_bits) & (self.sets - 1)
        tag = addr >> (self.offset_bits + self.index_bits)
        return tag, set_index, offset

    def set_of(self, addr: int) -> int:
        return ((addr & 0xFFFFFFFF) >> self.offset_bits) & (self.sets - 1)

    def line_addr(self, addr: int) -> int:
        """Address of the cache line containing ``addr``."""
        return (addr & 0xFFFFFFFF) & ~(self.line_bytes - 1)

    def join(self, tag: int, set_index: int, offset: int = 0) -> int:
        """Inverse of :meth:`split`."""
        return (
            (tag << (self.offset_bits + self.index_bits))
            | (set_index << self.offset_bits)
            | offset
        ) & 0xFFFFFFFF


#: The FR-V L1 instruction cache of the paper (32 kB, 2-way, 32 B lines).
FRV_ICACHE = CacheConfig(size_bytes=32 * 1024, ways=2, line_bytes=32)

#: The FR-V L1 data cache of the paper (same geometry).
FRV_DCACHE = CacheConfig(size_bytes=32 * 1024, ways=2, line_bytes=32)

"""CACTI-style analytical SRAM access energy.

The model charges, per array access (a write is priced as a read):

* the row decoder (scaling with the number of row-address bits),
* the selected wordline (capacitance proportional to the row width),
* every bitline pair's partial swing, with bitline capacitance
  proportional to the number of rows,
* sense amplifiers / column circuitry per sensed bit,

which is the standard first-order decomposition used by CACTI-class
tools.  It replaces the paper's SPICE characterisation of E_way and
E_tag (Equation 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cache.config import CacheConfig
from repro.energy.technology import FRV_TECH, TechnologyParameters


@dataclass(frozen=True)
class SRAMArray:
    """An SRAM macro of ``rows`` x ``cols`` bits."""

    rows: int
    cols: int
    tech: TechnologyParameters = FRV_TECH

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("SRAM array dimensions must be positive")

    @property
    def bits(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------

    def read_energy_j(self) -> float:
        """Energy of one read access (J)."""
        t = self.tech
        c_bitline = self.rows * t.c_bitcell_f
        e_bitlines = (
            self.cols * c_bitline * t.vdd * t.vdd * t.bitline_swing
        )
        e_wordline = self.cols * t.c_wordline_per_cell_f * t.vdd * t.vdd
        e_sense = self.cols * t.e_sense_per_bit_j
        e_decode = max(math.ceil(math.log2(self.rows)), 1) \
            * t.e_decode_per_bit_j
        return e_bitlines + e_wordline + e_sense + e_decode

    def leakage_w(self) -> float:
        """Static power of the array (W)."""
        return self.bits * self.tech.p_leak_per_bit_w


@dataclass(frozen=True)
class CacheEnergy:
    """Per-access energies of one cache (Equation 1's E_way and E_tag)."""

    e_way_read_j: float
    e_tag_read_j: float
    leakage_w: float

    @property
    def tag_to_way_ratio(self) -> float:
        return self.e_tag_read_j / self.e_way_read_j


def cache_energy_per_access(
    config: CacheConfig, tech: TechnologyParameters = FRV_TECH
) -> CacheEnergy:
    """Derive E_way / E_tag for a cache geometry.

    One *way access* reads a full line from one way's data array; one
    *tag access* reads one way's tag + valid bit.  (The counters in
    :class:`repro.cache.stats.AccessCounters` already count per way, so
    a 2-way parallel lookup shows up as 2 tag accesses x E_tag.)
    """
    data_array = SRAMArray(
        rows=config.sets, cols=config.line_bits, tech=tech
    )
    tag_array = SRAMArray(
        rows=config.sets, cols=config.tag_bits + 1, tech=tech
    )
    total_leak = config.ways * (
        data_array.leakage_w() + tag_array.leakage_w()
    )
    return CacheEnergy(
        e_way_read_j=data_array.read_energy_j(),
        e_tag_read_j=tag_array.read_energy_j(),
        leakage_w=total_leak,
    )

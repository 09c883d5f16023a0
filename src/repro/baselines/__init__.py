"""Baseline cache architectures the paper compares against.

Original, two-phase, way prediction and the filter cache serve both
caches with one controller each (a fetch is a load); Panwar and
MA-links are I-cache designs, the set buffer a D-cache one.

* :mod:`repro.baselines.original` — the unmodified set-associative
  cache (all tags compared, all ways read on loads).
* :mod:`repro.baselines.panwar` — Panwar & Rennels [4]: no tag access
  for intra-cache-line sequential instruction flow (Figure 6's
  "approach [4]", also the I-cache baseline of Figure 8).
* :mod:`repro.baselines.set_buffer` — Yang et al. [14]: lightweight
  set buffer for data caches (Figure 4/5's "approach [14]").
* :mod:`repro.baselines.ma_links` — Ma et al. [11]: per-line
  sequential/branch way links (the closest prior art; costs link
  storage + an invalidation mechanism).
* :mod:`repro.baselines.way_prediction` — Inoue et al. [9]: MRU way
  prediction (related work; incurs mispredict cycles).
* :mod:`repro.baselines.filter_cache` — Kin et al. [6]: small L0
  filter cache (related work; incurs L0-miss cycles).
* :mod:`repro.baselines.two_phase` — Hasegawa et al. [8]: sequential
  tag-then-way access (related work; one extra cycle per access).
"""

from repro.baselines.filter_cache import FilterCache
from repro.baselines.ma_links import MaLinksICache
from repro.baselines.original import OriginalCache
from repro.baselines.panwar import PanwarICache
from repro.baselines.set_buffer import SetBufferDCache
from repro.baselines.two_phase import TwoPhaseCache
from repro.baselines.way_prediction import WayPredictionCache

__all__ = [
    "FilterCache",
    "MaLinksICache",
    "OriginalCache",
    "PanwarICache",
    "SetBufferDCache",
    "TwoPhaseCache",
    "WayPredictionCache",
]

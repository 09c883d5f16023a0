"""Single-pass multi-architecture trace replay.

The figure and report experiments evaluate many architectures over the
same handful of workloads; the trace cache removed the ISS cost of
that repetition but every evaluation still re-split and re-replayed
the identical access stream.  This package removes the replay
repetition:

* :mod:`repro.replay.columns` — a columnar representation of one
  workload's access stream: the pre-split tag/index/store/kind columns
  (and the narrow-adder MAB key column) computed once per geometry
  with vectorized numpy and kept in process as numpy arrays end to
  end, plus the memoized LRU stack distances of a value stream.
* :mod:`repro.replay.engine` — the one fast engine: runs *all
  requested architectures in one pass* over the columns.  Every
  design derives its counters from the columns and its design point
  alone, through the function it registers beside its class, so a
  replay group builds no controller.  Architectures whose cache
  access stream is state-independent (original, two-phase,
  way-prediction, Panwar, set buffer, MA-links, way memoization at
  any MAB geometry, alone or behind a line buffer) share literally
  one
  :meth:`~repro.cache.cache.SetAssociativeCache.access_fast_batch`
  sweep per (geometry, replacement policy) — vectorized for the 2-way
  LRU caches the paper evaluates — and derive from its packed
  results; the filter cache, whose L0 hits skip L1, walks its own L1
  stream over a shadow cache of its own.

Every controller's ``process`` is a singleton
:func:`~repro.replay.engine.replay_counters` call, ``evaluate`` runs a
fast-engine spec as a singleton :func:`~repro.replay.engine.replay_specs`
group, and ``evaluate_many`` groups fresh specs sharing
``(cache side, workload, engine="fast")`` — so a result never depends
on the company its spec keeps.
"""

from repro.replay.columns import (
    DataColumns,
    FetchColumns,
    SharedPass,
    columns_for_stream,
)
from repro.replay.engine import (
    Controller,
    DesignPoint,
    clear_columns_cache,
    derive_counters,
    fast_path,
    plan_groups,
    replay_counters,
    replay_specs,
)

__all__ = [
    "DataColumns",
    "FetchColumns",
    "SharedPass",
    "columns_for_stream",
    "Controller",
    "DesignPoint",
    "clear_columns_cache",
    "derive_counters",
    "fast_path",
    "plan_groups",
    "replay_counters",
    "replay_specs",
]

"""Set-associative cache substrate.

A behavioural model of the FR-V's split L1 caches: 32 kB, 2-way
set-associative, 512 sets of 32-byte lines (paper Section 4), with
pluggable replacement policies, an eviction callback used by the MAB
consistency machinery, a line buffer (for the paper's future-work
combination) and a coalescing write-back buffer.

Import each from its module — :mod:`repro.cache.config` (geometry),
:mod:`repro.cache.cache` (the cache and its batch sweep),
:mod:`repro.cache.replacement`, :mod:`repro.cache.stats`,
:mod:`repro.cache.line_buffer`, :mod:`repro.cache.write_buffer` — so
that reading a geometry or a counter record does not load the cache
model and NumPy.
"""

"""Shared experiment machinery, now a thin shim over :mod:`repro.api`.

The architecture registry, counter plumbing and power pricing all live
in the declarative api layer; this module keeps the names the
experiment modules (and external callers) grew up with:

* ``dcache_counters`` / ``icache_counters`` / ``dcache_power`` /
  ``icache_power`` — per-(benchmark, architecture) evaluation, cached
  per process through the api's result cache.
* ``arch_spec`` — the canonical :class:`~repro.api.spec.RunSpec` for a
  (cache, architecture, benchmark) point; the registered experiments
  (:mod:`repro.experiments.registry`) build their declared ``specs()``
  and their ``tabulate`` lookups from it.

Note the cached ``*_counters`` / ``*_power`` helpers evaluate on
miss; experiment ``tabulate`` implementations must consume their
declared results mapping instead (purity is tested), so these helpers
are for library users, examples and tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.api import RunSpec, evaluate
from repro.cache.stats import AccessCounters
from repro.energy import PowerBreakdown


def arch_spec(cache: str, arch: str, benchmark: str) -> RunSpec:
    """The canonical spec for one (cache, architecture, benchmark)."""
    return RunSpec(cache=cache, arch=arch, workload=benchmark)


@lru_cache(maxsize=None)
def dcache_counters(benchmark: str, arch: str) -> AccessCounters:
    """Run ``arch`` over ``benchmark``'s data trace (cached)."""
    return evaluate(arch_spec("dcache", arch, benchmark)).counters


@lru_cache(maxsize=None)
def icache_counters(benchmark: str, arch: str) -> AccessCounters:
    """Run ``arch`` over ``benchmark``'s fetch stream (cached)."""
    return evaluate(arch_spec("icache", arch, benchmark)).counters


def dcache_power(benchmark: str, arch: str) -> PowerBreakdown:
    """Equation (1) for one D-cache architecture on one benchmark."""
    return evaluate(arch_spec("dcache", arch, benchmark)).power


def icache_power(benchmark: str, arch: str) -> PowerBreakdown:
    """Equation (1) for one I-cache architecture on one benchmark."""
    return evaluate(arch_spec("icache", arch, benchmark)).power


def geometric_mean(values) -> float:
    """Geometric mean, accumulated in log-space.

    A running product underflows (or overflows) for long lists of
    small (large) ratios; summing logarithms is exact in the float
    range instead.  Any zero value makes the mean zero, matching the
    limit of the product form; negative values are rejected (the
    product form would silently return NaN or a complex-rooted
    garbage value).
    """
    values = list(values)
    if not values:
        return 0.0
    total = 0.0
    for v in values:
        if v < 0:
            raise ValueError(
                f"geometric mean undefined for negative value {v!r}"
            )
        if v == 0:
            return 0.0
        total += math.log(v)
    return math.exp(total / len(values))


def average(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def savings(baseline: float, ours: float) -> float:
    """Fractional reduction of ``ours`` relative to ``baseline``."""
    return 1.0 - ours / baseline if baseline else 0.0


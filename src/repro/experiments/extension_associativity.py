"""Extension: cache associativity sweep + the consistency precondition.

Two questions the paper leaves open:

1. **How do the savings scale with associativity?**  Way memoization
   removes (ways - 1) data-way reads and all tag reads on a MAB hit,
   so its benefit should grow with the way count.  We sweep 1/2/4/8
   ways at constant 32 kB capacity.

2. **Is the "tag entries <= ways" condition real?**  Section 3.3
   claims MAB/cache consistency holds "as long as the number of tag
   entries in the MAB is smaller than the number of cache-ways".  We
   run a MAB with MORE tag entries than ways (4 tag entries on the
   2-way cache and on a direct-mapped cache) in paper mode and count
   stale hits — if the condition matters, violations appear here and
   only here.

The swept cache geometries are not registered architectures, so this
experiment declares no run specs and replays the custom
configurations inside ``tabulate``.
"""

from __future__ import annotations

from typing import List

from repro.api import RunSpec
from repro.cache.config import CacheConfig
from repro.core import MABConfig, WayMemoDCache
from repro.experiments.registry import Experiment, ResultMap, register
from repro.experiments.reporting import ExperimentResult, average
from repro.workloads import BENCHMARK_NAMES, load_workload

WAY_SWEEP = (1, 2, 4, 8)
CACHE_BYTES = 32 * 1024
LINE_BYTES = 32


def specs() -> List[RunSpec]:
    """Custom cache geometries — no declarative design points."""
    return []


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "ways", "mab", "tag_reduction_pct", "way_reduction_pct",
        "stale_hits", "condition_met",
    ))
    for ways in WAY_SWEEP:
        cache_config = CacheConfig(CACHE_BYTES, ways, LINE_BYTES)
        for tag_entries in (2, 4):
            mab_config = MABConfig(tag_entries, 8)
            tag_reds, way_reds, stale = [], [], 0
            for benchmark in BENCHMARK_NAMES:
                workload = load_workload(benchmark)
                memo = WayMemoDCache(cache_config, mab_config)
                c = memo.process(workload.trace.data)
                stale += c.stale_hits
                # Original architecture cost on the same geometry:
                # loads read all ways + all tags; stores one way.
                orig_tags = ways * c.accesses
                orig_ways = (
                    ways * c.loads + c.stores + c.cache_misses
                )
                tag_reds.append(1 - c.tag_accesses / orig_tags)
                way_reds.append(1 - c.way_accesses / orig_ways)
            result.add_row(
                ways=ways,
                mab=mab_config.label,
                tag_reduction_pct=100 * average(tag_reds),
                way_reduction_pct=100 * average(way_reds),
                stale_hits=stale,
                condition_met=tag_entries <= ways,
            )
    safe = [r for r in result.rows if r["condition_met"]]
    unsafe = [r for r in result.rows if not r["condition_met"]]
    result.notes.append(
        f"stale hits with condition met: {sum(r['stale_hits'] for r in safe)}; "
        f"with condition violated: {sum(r['stale_hits'] for r in unsafe)}"
    )
    reds = {
        r["ways"]: r["way_reduction_pct"]
        for r in result.rows if r["mab"] == "2x8" and r["ways"] >= 2
    }
    result.notes.append(
        "way-access reduction grows with associativity: "
        + ", ".join(f"{w}-way {reds[w]:.1f}%" for w in sorted(reds))
    )
    return result


EXPERIMENT = register(Experiment(
    name="extension_associativity",
    title=(
        "Extension: associativity sweep and the tag-entries<=ways "
        "consistency condition (D-cache, averages over the suite)"
    ),
    specs=specs,
    tabulate=tabulate,
    category="trace-derived",
    paper_reference=(
        "Sec 3.3: consistency guaranteed while MAB tag entries do "
        "not exceed the cache way count"
    ),
))

"""Extension: cache associativity sweep + the consistency precondition.

Two questions the paper leaves open:

1. **How do the savings scale with associativity?**  Way memoization
   removes (ways - 1) data-way reads and all tag reads on a MAB hit,
   so its benefit should grow with the way count.  We sweep 1/2/4/8
   ways at the FR-V cache's constant 32 kB capacity.

2. **Is the "tag entries <= ways" condition real?**  Section 3.3
   claims MAB/cache consistency holds "as long as the number of tag
   entries in the MAB is smaller than the number of cache-ways".  We
   run a MAB with MORE tag entries than ways (4 tag entries on the
   2-way cache and on a direct-mapped cache) in paper mode and count
   stale hits — if the condition matters, violations appear here and
   only here.

Each point is the parametric ``way-memo`` entry with a ``ways``
parameter; the 2-way points are the MAB-size grid's own specs.
"""

from __future__ import annotations

from typing import List

from repro.api import RunSpec
from repro.experiments.ablation_mab_size import mab_spec
from repro.experiments.registry import (
    Experiment,
    ResultMap,
    register,
    spec_result,
)
from repro.experiments.reporting import ExperimentResult, average
from repro.workloads import BENCHMARK_NAMES

WAY_SWEEP = (1, 2, 4, 8)
TAG_ENTRIES = (2, 4)
INDEX_ENTRIES = 8


def assoc_spec(ways: int, tag_entries: int, benchmark: str) -> RunSpec:
    """A ``tag_entries`` x 8 MAB on a ``ways``-way 32 kB D-cache."""
    return mab_spec(
        "dcache", tag_entries, INDEX_ENTRIES, benchmark, ways=ways
    )


def specs() -> List[RunSpec]:
    """Every (ways, tag entries, benchmark) design point."""
    return [
        assoc_spec(ways, tag_entries, benchmark)
        for ways in WAY_SWEEP
        for tag_entries in TAG_ENTRIES
        for benchmark in BENCHMARK_NAMES
    ]


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "ways", "mab", "tag_reduction_pct", "way_reduction_pct",
        "stale_hits", "condition_met",
    ))
    for ways in WAY_SWEEP:
        for tag_entries in TAG_ENTRIES:
            tag_reds, way_reds, stale = [], [], 0
            for benchmark in BENCHMARK_NAMES:
                c = spec_result(
                    results, assoc_spec(ways, tag_entries, benchmark)
                ).counters
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
                mab=f"{tag_entries}x{INDEX_ENTRIES}",
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
    paper_reference=(
        "Sec 3.3: consistency guaranteed while MAB tag entries do "
        "not exceed the cache way count"
    ),
))

"""Scenario search: hunt the generator space for divergent workloads.

``repro search`` runs a seeded hill-climb over the synthetic-generator
parameter space (every registered ``kind`` and a bounded choice grid
per parameter), scoring each candidate workload with one of:

* ``divergence`` — spread in average power (max - min ``total_mw``)
  across the comparison architecture set: the workloads where the
  *choice* of technique matters most;
* ``miss-storm`` — the original cache's miss rate: worst-case miss
  patterns;
* ``mab-thrash`` — the way-memo design's tags-per-access: streams
  that defeat base-register memoization.

The search is fully deterministic: the mutation RNG derives from
``--seed``, candidate generators use a fixed stream seed, evaluation
is the same byte-stable :func:`~repro.api.evaluate.evaluate_many`
everything else uses, and ties never replace the incumbent — so
repeated runs with the same arguments emit byte-identical winning
scenario files (asserted by CI).  The winner is re-evaluated cache-off
before writing, proving the emitted scenario reproduces its score.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.evaluate import evaluate_many
from repro.api.registry import comparison_archs
from repro.api.spec import RunSpec
from repro.experiments.registry import keyed_results
from repro.experiments.reporting import average, render
from repro.scenarios.scenario import METRICS, ArchEntry, Scenario

#: Bounded choice grid per data-side generator kind.  Sizes and stream
#: seeds are pinned by the harness, not searched.
DATA_SPACE: Dict[str, Dict[str, Tuple[Any, ...]]] = {
    "pointers": {
        "num_bases": (1, 2, 4, 8),
        "base_region_bytes": (1 << 12, 1 << 14, 1 << 16),
        "max_disp": (16, 64, 256),
        "large_disp_fraction": (0.0, 0.1, 0.5),
        "store_fraction": (0.0, 0.3, 0.6),
    },
    "markov": {
        "num_regions": (2, 4, 8, 16),
        "region_bytes": (1 << 10, 1 << 12, 1 << 14),
        "p_jump": (0.01, 0.05, 0.2, 0.5),
        "max_disp": (16, 64, 256),
        "store_fraction": (0.0, 0.3),
    },
    "loop-nest": {
        "arrays": (2, 3, 4, 6),
        "inner": (16, 64, 256),
        "array_bytes": (1 << 12, 1 << 14),
        "store_fraction": (0.0, 0.25),
    },
    "pointer-chase": {
        "num_nodes": (256, 1024, 4096, 16384),
        "node_bytes": (8, 16, 32),
        "store_fraction": (0.0, 0.2),
    },
    "phase": {
        "num_phases": (2, 4, 8),
        "hot_bytes": (1 << 8, 1 << 10, 1 << 12),
        "cold_bytes": (1 << 15, 1 << 17),
        "max_disp": (16, 64),
    },
    "context-switch": {
        "processes": (2, 3, 4),
        "quantum": (64, 256, 1024),
        "region_bytes": (1 << 12, 1 << 14),
    },
    "mab-thrash": {
        "mab_tags": (1, 2, 4),
        "mab_sets": (4, 8, 16),
        "spacing_bytes": (1 << 14, 1 << 16),
        "store_fraction": (0.0, 0.2),
    },
}

#: Bounded choice grid per fetch-side generator kind.
FETCH_SPACE: Dict[str, Dict[str, Tuple[Any, ...]]] = {
    "blocks": {
        "block_packets": (2, 6, 10),
        "num_targets": (4, 8, 32),
        "text_bytes": (1 << 12, 1 << 14, 1 << 16),
    },
    "loop-nest": {
        "inner_blocks": (2, 4, 8),
        "inner_iters": (2, 8, 32),
        "num_nests": (2, 4, 8),
        "nest_bytes": (1 << 10, 1 << 12),
    },
    "phase": {
        "num_phases": (2, 4, 8),
        "num_targets": (4, 8),
        "phase_text_bytes": (1 << 12, 1 << 13),
    },
    "mab-thrash": {
        "mab_sets": (4, 8, 16),
        "num_targets": (2, 3, 5),
        "spacing_bytes": (1 << 13, 1 << 15),
    },
}

OBJECTIVES = ("divergence", "miss-storm", "mab-thrash")

#: Stream seed pinned into every candidate (the search RNG mutates
#: *parameters*; candidate streams themselves stay content-addressed).
STREAM_SEED = 1


def _space(cache: str) -> Dict[str, Dict[str, Tuple[Any, ...]]]:
    return DATA_SPACE if cache == "dcache" else FETCH_SPACE


def _size_params(cache: str, kind: str, quick: bool) -> Dict[str, int]:
    n = 4096 if quick else 16_384
    if cache == "dcache":
        return {"num_accesses": n}
    if kind == "mab-thrash":
        return {"num_fetches": n}
    # Fetch generators count blocks; each block is a handful of
    # packets, so divide to keep candidate cost comparable.
    return {"num_blocks": max(n // 8, 64)}


def objective_archs(cache: str, objective: str) -> Tuple[str, ...]:
    if objective == "divergence":
        return comparison_archs(cache)
    if objective == "miss-storm":
        return ("original",)
    if objective == "mab-thrash":
        return ("way-memo-2x8",) if cache == "dcache" \
            else ("way-memo-2x16",)
    raise ValueError(
        f"objective must be one of {OBJECTIVES}, not {objective!r}"
    )


def score_results(objective: str, results) -> float:
    """The scalar score of one candidate's evaluated architectures."""
    if objective == "divergence":
        powers = [METRICS["total_mw"](r) for r in results]
        return max(powers) - min(powers)
    if objective == "miss-storm":
        return average([METRICS["miss_rate"](r) for r in results])
    return average([METRICS["tags_per_access"](r) for r in results])


def candidate_workload(cache: str, kind: str,
                       params: Dict[str, Any], quick: bool) -> str:
    merged = {
        "kind": kind, "seed": STREAM_SEED,
        **_size_params(cache, kind, quick), **params,
    }
    body = ",".join(f"{k}={merged[k]}" for k in sorted(merged))
    return f"synthetic:{body}"


class ScenarioSearch:
    """Seeded hill-climb over one cache side's generator space."""

    def __init__(self, cache: str, objective: str, seed: int,
                 budget: int, workers: Optional[int], quick: bool):
        self.cache = cache
        self.objective = objective
        self.seed = seed
        self.budget = budget
        self.workers = workers
        self.quick = quick
        self.rng = np.random.default_rng(seed)
        self.archs = objective_archs(cache, objective)
        self.space = _space(cache)
        self.evaluations = 0
        self.scores: Dict[str, float] = {}

    # -- candidate evaluation -------------------------------------------

    def _specs(self, workload: str) -> List[RunSpec]:
        return [
            RunSpec(cache=self.cache, arch=arch, workload=workload)
            for arch in self.archs
        ]

    def score(self, kind: str, params: Dict[str, Any],
              use_cache: bool = True) -> Tuple[str, float]:
        workload = candidate_workload(
            self.cache, kind, params, self.quick)
        if workload in self.scores:
            return workload, self.scores[workload]
        results = evaluate_many(
            self._specs(workload), workers=self.workers,
            use_cache=use_cache,
        )
        value = score_results(self.objective, results)
        self.scores[workload] = value
        self.evaluations += 1
        return workload, value

    # -- mutation -------------------------------------------------------

    def _initial(self, kind: str) -> Dict[str, Any]:
        return {
            param: choices[0]
            for param, choices in sorted(self.space[kind].items())
        }

    def _random(self, kind: str) -> Dict[str, Any]:
        return {
            param: choices[int(self.rng.integers(len(choices)))]
            for param, choices in sorted(self.space[kind].items())
        }

    def _mutate(self, kind: str,
                params: Dict[str, Any]) -> Dict[str, Any]:
        names = sorted(self.space[kind])
        mutated = dict(params)
        count = 1 + int(self.rng.integers(2))  # flip 1 or 2 params
        for index in self.rng.choice(
                len(names), size=min(count, len(names)),
                replace=False):
            param = names[int(index)]
            choices = [
                value for value in self.space[kind][param]
                if value != mutated[param]
            ]
            if choices:
                mutated[param] = choices[
                    int(self.rng.integers(len(choices)))
                ]
        return mutated

    # -- the climb ------------------------------------------------------

    def run(self, log=lambda message: None):
        """Hill-climb under the budget; return (kind, params, score)."""
        best: Optional[Tuple[str, Dict[str, Any], float]] = None
        # Seed the climb with every kind's baseline candidate.
        for kind in sorted(self.space):
            if self.evaluations >= self.budget:
                break
            params = self._initial(kind)
            workload, value = self.score(kind, params)
            log(f"  [{self.evaluations}/{self.budget}] "
                f"{value:10.4f}  {workload}")
            if best is None or value > best[2]:
                best = (kind, params, value)
        assert best is not None, "budget too small to seed the search"
        while self.evaluations < self.budget:
            if self.rng.random() < 0.25:
                kind = sorted(self.space)[
                    int(self.rng.integers(len(self.space)))
                ]
                params = self._random(kind)
            else:
                kind = best[0]
                params = self._mutate(kind, best[1])
            workload, value = self.score(kind, params)
            log(f"  [{self.evaluations}/{self.budget}] "
                f"{value:10.4f}  {workload}")
            if value > best[2]:
                best = (kind, params, value)
        return best

    # -- the emitted scenario -------------------------------------------

    def winning_scenario(self, kind: str, params: Dict[str, Any],
                         value: float) -> Scenario:
        workload = candidate_workload(
            self.cache, kind, params, self.quick)
        name = (
            f"search-{self.cache}-{self.objective}-s{self.seed}"
        )
        description = (
            f"Found by `repro search --cache {self.cache} "
            f"--objective {self.objective} --seed {self.seed} "
            f"--budget {self.budget}"
            + (" --quick" if self.quick else "")
            + f"`: score {value:.6f} over {len(self.archs)} "
            f"architecture(s) after {self.evaluations} evaluations."
        )
        return Scenario(
            name=name,
            title=(
                f"Scenario search winner: {self.objective} "
                f"({self.cache})"
            ),
            description=description,
            architectures=(
                (self.cache, tuple(
                    ArchEntry(arch=arch) for arch in self.archs
                )),
            ),
            workloads=(workload,),
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro search",
        description=(
            "Search the synthetic-generator space for a scenario "
            "maximizing an objective; emits the winner as a "
            "reloadable scenario file."
        ),
    )
    parser.add_argument("--cache", choices=("dcache", "icache"),
                        default="dcache")
    parser.add_argument("--objective", choices=OBJECTIVES,
                        default="divergence")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--budget", type=int, default=24,
                        help="candidate evaluation budget")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="output scenario file "
                             "(default <scenario-name>.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small streams + budget cap (CI smoke)")
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    budget = min(args.budget, 8) if args.quick else args.budget

    search = ScenarioSearch(
        cache=args.cache, objective=args.objective, seed=args.seed,
        budget=budget, workers=args.workers or None,
        quick=args.quick,
    )
    print(
        f"searching {args.cache} for {args.objective} "
        f"(seed {args.seed}, budget {budget}, "
        f"{len(search.archs)} archs/candidate)"
    )
    kind, params, value = search.run(log=print)
    scenario = search.winning_scenario(kind, params, value)
    workload = scenario.workloads[0]

    # Re-evaluate the winner cache-off: the emitted file must
    # reproduce its score from nothing but its own bytes.
    fresh = evaluate_many(
        scenario.specs(), workers=args.workers or None,
        use_cache=False,
    )
    fresh_score = score_results(args.objective, fresh)
    if f"{fresh_score:.9g}" != f"{value:.9g}":
        print(
            f"error: winner failed re-evaluation: search score "
            f"{value:.9g} != fresh score {fresh_score:.9g}",
            file=sys.stderr,
        )
        return 1

    out = args.out or Path(f"{scenario.name}.json")
    out.write_text(scenario.canonical_json())
    print(f"\nwinner: {workload}")
    print(f"score:  {value:.6f} ({args.objective}, re-verified)")
    print(f"wrote:  {out}")
    print()
    print(render(scenario.tabulate(
        keyed_results(scenario.specs(), fresh)
    )))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

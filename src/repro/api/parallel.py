"""The shared fan-out harness: ordered parallel map + trace warming.

Every batch evaluation in the repository — ``evaluate_many``, the
design-space sweeps, the parallel figure experiments and ``repro
report`` — goes through :func:`parallel_map`: an ordered
``multiprocessing`` map whose reductions are deterministic by
construction (results always come back in task order), so rendered
output is byte-identical for any worker count.

Workers never run the ISS: :func:`warm_trace_cache` populates both the
in-process workload cache (inherited by forked workers) and the
versioned on-disk trace cache (``$REPRO_TRACE_CACHE``) in the parent
first, so each worker just loads the ``.npz`` arrays.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence

from repro.workloads import BENCHMARK_NAMES, load_workload, parse_workload


def warm_trace_cache(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> None:
    """Run every benchmark once so workers skip the ISS entirely.

    Accepts any benchmark workload string (``compress:scale=4``,
    ``fft:packet=16``) and warms the program behind it, so one batch
    never executes a program twice.
    """
    for program in dict.fromkeys(
        parse_workload(name).program for name in benchmarks
    ):
        load_workload(program)


def resolve_worker_count(workers: Optional[int]) -> int:
    """``None``/``0`` means every core — the one sizing rule shared by
    :func:`parallel_map` and the service worker pool.

    Negative counts are a caller bug (historically they fell through
    ``min()`` into silent serial execution) and raise ``ValueError``.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if not workers:
        return os.cpu_count() or 1
    return workers


def parallel_map(
    fn: Callable, tasks: List, workers: Optional[int]
) -> List:
    """Ordered map over ``tasks`` with ``workers`` processes.

    ``workers=None`` uses every core; ``workers<=1`` runs serially in
    this process (no pool, easiest to debug).  Results always come
    back in task order, which keeps every reduction deterministic.
    """
    workers = resolve_worker_count(workers)
    workers = min(workers, len(tasks)) if tasks else 1
    if workers <= 1:
        return [fn(task) for task in tasks]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, tasks, chunksize=1)

"""Experiment harness: one module per paper table / figure + ablations.

Every module declares an :class:`~repro.experiments.registry.Experiment`
— its run specs (``specs() -> list[RunSpec]``) and a **pure**
tabulation (``tabulate({spec_key: RunResult}) -> ExperimentResult``) —
and self-registers in the central registry at import, exactly as
architectures do in :mod:`repro.api.registry`.  The registry is the
one enumeration the report generator, ``repro run``/``repro report``,
``repro list`` and the HTTP service's experiments endpoints share.

Programmatic use
----------------
Each experiment is sugar over the declarative :mod:`repro.api` layer —
a design point is three lines from the library::

    from repro.api import RunSpec, evaluate
    spec = RunSpec(cache="dcache", arch="way-memo-2x8", workload="dct")
    result = evaluate(spec)   # .counters, .power, .cycles

A finished table is one more line::

    from repro.experiments.registry import run_experiment
    table = run_experiment("figure4_dcache_accesses", workers=4)

Because ``tabulate`` is a pure function of JSON-serializable results,
the evaluation can also happen remotely: ``repro report --url`` /
``repro run --url`` fetch the results from a running service (one
``POST /v1/batch`` through
:func:`~repro.experiments.registry.fetch_results`) and tabulate
locally, byte-identical to the in-process output.

Paper artefacts
---------------
========================== ========================================
module                      reproduces
========================== ========================================
``table1_area``             Table 1 — MAB area (mm^2)
``table2_delay``            Table 2 — MAB critical-path delay (ns)
``table3_power``            Table 3 — MAB active/sleep power (mW)
``figure4_dcache_accesses`` Figure 4 — D-cache tag/way accesses
``figure5_dcache_power``    Figure 5 — D-cache power breakdown
``figure6_icache_accesses`` Figure 6 — I-cache tag/way accesses
``figure7_icache_power``    Figure 7 — I-cache power
``figure8_total_power``     Figure 8 — total I+D power
========================== ========================================

Ablations / extensions (beyond the paper's artefacts)
-----------------------------------------------------
``ablation_consistency``    paper vs evict-hook MAB consistency
``ablation_mab_size``       full (Nt, Ns) design-space sweep
``ablation_adder_width``    narrow-adder width vs bypass rate
``ablation_policies``       cache replacement policy sensitivity
``ablation_stack_traffic``  compiled-code stack traffic vs MAB hit rate
``ablation_fetch_width``    fetch-packet width sensitivity
``ablation_energy_model``   tag/way energy-ratio sensitivity
``extension_line_buffer``   the conclusion's line-buffer combination
``extension_baselines``     filter cache / way prediction / two-phase
``extension_associativity`` way-count sweep + the Nt<=ways condition
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    all_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.reporting import ExperimentResult, render

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "render",
    "run_experiment",
]

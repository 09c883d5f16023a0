"""The central experiment registry: every paper artefact, first-class.

Mirroring the architecture registry (:mod:`repro.api.registry`), every
reproduced table / figure / ablation is one declarative
:class:`Experiment` record registered here exactly once:

* ``specs()`` declares the design points the experiment consumes, as
  plain :class:`~repro.api.spec.RunSpec` objects — the same documents
  the CLI, the sweeps and the HTTP service speak;
* ``tabulate(results)`` turns ``{spec.key(): RunResult}`` into the
  finished :class:`~repro.experiments.reporting.ExperimentResult`,
  **purely**: no simulation, no evaluation, no hidden state — calling
  it twice on the same results yields identical bytes
  (``tests/test_experiment_registry.py`` asserts this for every
  registered experiment).

Because a finished table is a deterministic function of
JSON-serializable results, the *evaluation* can happen anywhere — this
process (:func:`run_experiment`), a worker pool, or a remote service
(``repro report --url`` / ``POST /v1/experiments/{name}``) — and the
rendered artefact is byte-identical either way.  :func:`fetch_results`
is the experiment layer's one evaluation path: :meth:`Experiment.run`,
``repro run``, ``repro report`` and ``repro sweep`` each hand it one
deduplicated batch of specs, evaluated locally or on a service.

Only the analytic Tables 1–3 consume no run specs: they declare
``specs() == []`` and their ``tabulate`` computes from the hardware
model alone.  Every other experiment, including the ablations that
modify the access stream or the cache (adder width, fetch width,
stack traffic, associativity), spells its design points as specs —
workload modifiers such as ``fft:packet=16`` and ``dct:stack=0.2``,
and the parametric ``way-memo`` entry's ``ways`` / ``size_bytes`` —
so every table's points are stored, grouped, parallelised and
served like any other.

Experiment modules self-register at import; :data:`EXPERIMENTS` names
them in report order and :func:`get_experiment` imports lazily, so
``registry.all_experiments()`` is the one enumeration the report
generator, the CLI and the service share.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api import RunSpec, evaluate_many
from repro.api.result import RunResult
from repro.experiments.reporting import ExperimentResult

#: Every experiment module, in report order.  Each module registers an
#: :class:`Experiment` of the same name at import time.
EXPERIMENTS: Tuple[str, ...] = (
    "table1_area",
    "table2_delay",
    "table3_power",
    "figure4_dcache_accesses",
    "figure5_dcache_power",
    "figure6_icache_accesses",
    "figure7_icache_power",
    "figure8_total_power",
    "ablation_consistency",
    "ablation_mab_size",
    "ablation_adder_width",
    "ablation_policies",
    "ablation_stack_traffic",
    "ablation_fetch_width",
    "ablation_energy_model",
    "extension_line_buffer",
    "extension_baselines",
    "extension_associativity",
)

#: Heavier registered experiments that are *not* part of the paper
#: report (``all_experiments``) but are addressable by name everywhere
#: an experiment is: full-grid sweeps, registered by these modules.
EXTRA_EXPERIMENT_MODULES: Dict[str, str] = {
    "sweep_mab_size": "repro.experiments.sweep",
    "sweep_baselines": "repro.experiments.sweep",
}

#: Prefix of scenario-backed experiment names: ``scenario:<name>``
#: resolves by loading ``<name>.json`` from the shipped scenario
#: library (see :mod:`repro.scenarios`).
SCENARIO_PREFIX = "scenario:"

#: ``{spec.key(): RunResult}`` — what ``tabulate`` consumes.
ResultMap = Mapping[str, RunResult]


@dataclass(frozen=True, eq=False)
class Experiment:
    """One registered experiment: declared specs + pure tabulation.

    ``title`` and ``paper_reference`` live on the record (not inside
    ``tabulate``) so the registry can enumerate finished-artefact
    metadata — ``repro list``, ``GET /v1/experiments`` — without
    evaluating anything.
    """

    name: str
    title: str
    specs: Callable[[], List[RunSpec]]
    tabulate: Callable[[ResultMap], ExperimentResult]
    paper_reference: Optional[str] = None
    #: What powers the table: ``spec-driven`` (declared RunSpecs, the
    #: default) or ``analytic`` (hardware model only — instant); the
    #: sweeps and scenarios name their own.
    category: str = "spec-driven"

    def new_result(self, columns: Sequence[str]) -> ExperimentResult:
        """The empty result shell every ``tabulate`` starts from."""
        return ExperimentResult(
            name=self.name,
            title=self.title,
            columns=columns,
            paper_reference=self.paper_reference,
        )

    def run(self, workers: Optional[int] = 1) -> ExperimentResult:
        """Evaluate the declared specs and tabulate.  Callers holding
        results already (a prefetched batch, a remote fetch) call
        ``tabulate`` on them instead."""
        return self.tabulate(fetch_results(self.specs(), workers=workers))


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add ``experiment`` to the registry (duplicate names are an error)."""
    if experiment.name in _REGISTRY:
        raise ValueError(
            f"experiment {experiment.name!r} already registered"
        )
    _REGISTRY[experiment.name] = experiment
    return experiment


def peek(name: str) -> Optional[Experiment]:
    """The already-registered record for ``name``, or None.

    Never imports anything — the idempotence check scenario loading
    uses to avoid double registration.
    """
    return _REGISTRY.get(name)


def get_experiment(name: str) -> Experiment:
    """Look up one experiment, importing its module on first use.

    Resolves, in order: the paper-report experiments
    (:data:`EXPERIMENTS`), the extra registered experiments
    (:data:`EXTRA_EXPERIMENT_MODULES` — the full sweeps), and
    ``scenario:<name>`` records loaded from the shipped scenario
    library.
    """
    if name not in _REGISTRY:
        if name in EXPERIMENTS:
            importlib.import_module(f"repro.experiments.{name}")
        elif name in EXTRA_EXPERIMENT_MODULES:
            importlib.import_module(EXTRA_EXPERIMENT_MODULES[name])
        elif name.startswith(SCENARIO_PREFIX):
            from repro.scenarios import library

            try:
                library.register_scenario(
                    library.load_shipped(name[len(SCENARIO_PREFIX):])
                )
            except KeyError:
                pass  # fall through to the uniform unknown-name error
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{experiment_catalog()}"
        ) from None


def experiment_catalog() -> Tuple[str, ...]:
    """Every addressable experiment name: report order, then the
    registered sweeps, then the shipped ``scenario:<name>`` records."""
    from repro.scenarios import library

    return (
        EXPERIMENTS
        + tuple(EXTRA_EXPERIMENT_MODULES)
        + tuple(
            SCENARIO_PREFIX + name
            for name in library.shipped_scenario_names()
        )
    )


def all_experiments() -> Tuple[Experiment, ...]:
    """The paper-report experiments, in report order (imports them all).

    This is the report/enumeration surface; the full catalog
    (including sweeps and shipped scenarios) is
    :func:`catalog_experiments`.
    """
    return tuple(get_experiment(name) for name in EXPERIMENTS)


def catalog_experiments() -> Tuple[Experiment, ...]:
    """Every addressable experiment record (imports/loads them all)."""
    return tuple(get_experiment(name) for name in experiment_catalog())


def run_experiment(
    experiment: Union[str, Experiment], workers: Optional[int] = 1
) -> ExperimentResult:
    """Run one experiment by name or record (see :meth:`Experiment.run`)."""
    if isinstance(experiment, str):
        experiment = get_experiment(experiment)
    return experiment.run(workers=workers)


def keyed_results(
    specs: Sequence[RunSpec], results: Sequence[RunResult]
) -> Dict[str, RunResult]:
    """The ``{spec.key(): RunResult}`` mapping ``tabulate`` consumes.

    The single defining site of the ResultMap shape: keys are
    canonical spec serializations, values align with the spec order.
    """
    return dict(zip((s.key() for s in specs), results))


def fetch_results(
    specs: Iterable[RunSpec],
    workers: Optional[int] = None,
    url: Optional[str] = None,
    progress: bool = False,
) -> Dict[str, RunResult]:
    """Evaluate ``specs`` as ONE deduplicated batch, locally or remotely.

    The one place the experiment layer turns specs into results:
    :meth:`Experiment.run`, ``repro run``, ``repro report`` and
    ``repro sweep`` all come here, so design points shared between
    experiments (e.g. ``ablation_energy_model`` re-prices the Figure-8
    points) are evaluated and transferred once.  Locally the batch
    goes through :func:`repro.api.evaluate_many`; with ``url`` it goes
    to a running service as one ``POST /v1/batch``, after a code
    fingerprint check.
    """
    unique = list({s.key(): s for s in specs}.values())
    if not unique:
        return {}
    if url is not None:
        from repro.service import ServiceClient

        client = ServiceClient(url)
        # Refuse a version-skewed server up front (usable error before
        # any waiting); the claim sent with the batch re-checks it
        # atomically in case the server is redeployed in between.
        client.verify_fingerprint()
        if progress:
            print(
                f"  fetching {len(unique)} design points from "
                f"{url} ...", flush=True,
            )
        return keyed_results(
            unique,
            client.evaluate_many(
                unique, workers=workers, claim_fingerprint=True
            ),
        )
    if progress:
        print(
            f"  prefetching {len(unique)} design points "
            f"(workers={workers or 'all'}) ...", flush=True,
        )
    return keyed_results(
        unique, evaluate_many(unique, workers=workers)
    )


def spec_result(results: ResultMap, spec: RunSpec) -> RunResult:
    """The result for ``spec``, with a usable error on a missing key.

    The helper ``tabulate`` implementations use to consume their
    declared design points; a miss means the caller evaluated a
    different spec set than the experiment declared.
    """
    try:
        return results[spec.key()]
    except KeyError:
        raise KeyError(
            f"tabulate is missing a result for declared spec "
            f"{spec.key()} (got {len(results)} results)"
        ) from None

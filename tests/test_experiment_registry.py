"""Tests for the central experiment registry.

The tentpole contracts: every experiment module registers exactly one
record under its module name; declared specs are valid, stable
``RunSpec`` lists; every ``tabulate`` is pure — two calls on the same
results render identical bytes, perform zero simulations (asserted
via the evaluate/store counters), replay no stream and load no
workload; and ``repro report --url`` renders
markdown byte-identical to the local path, with zero local
simulations once the server's store is warm, matching the golden
snapshots.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.api import RunSpec, evaluate_many, simulation_count
from repro.experiments import (
    EXPERIMENTS,
    all_experiments,
    get_experiment,
    render,
    run_experiment,
)
from repro.store import default_store

GOLDEN_DIR = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# completeness
# ----------------------------------------------------------------------

def test_every_module_registers_under_its_own_name():
    for name in EXPERIMENTS:
        experiment = get_experiment(name)
        assert experiment.name == name
        assert experiment.title


def test_registered_names_are_unique_and_complete():
    names = [experiment.name for experiment in all_experiments()]
    assert names == list(EXPERIMENTS)
    assert len(set(names)) == len(names)


def test_duplicate_registration_is_rejected():
    from repro.experiments.registry import register

    with pytest.raises(ValueError, match="already registered"):
        register(get_experiment("table1_area"))


def test_unknown_experiment_raises_with_available_names():
    with pytest.raises(KeyError, match="table1_area"):
        get_experiment("figure99")


def test_declared_specs_are_valid_and_stable():
    for experiment in all_experiments():
        first, second = experiment.specs(), experiment.specs()
        assert first == second, experiment.name
        assert all(isinstance(s, RunSpec) for s in first)


# ----------------------------------------------------------------------
# purity: tabulate simulates nothing and is deterministic
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def all_results():
    """Every declared design point, evaluated once up front."""
    specs = [s for exp in all_experiments() for s in exp.specs()]
    return dict(zip(
        (s.key() for s in specs),
        evaluate_many(specs, workers=1),
    ))


@pytest.fixture()
def replays_and_loads(monkeypatch):
    """Every replay-engine call and workload load, by entry point.

    A controller's ``process`` replays through ``replay_counters``
    without counting as a simulation, and every workload load goes
    through the suite's cached loader, so wrapping those two entry
    points sees what ``simulation_count`` cannot.
    """
    import repro.replay
    import repro.replay.engine as engine
    import repro.workloads.suite as suite

    calls = []

    def watch(modules, name):
        original = getattr(modules[0], name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, recorded)

    watch((engine, repro.replay), "replay_counters")
    watch((suite,), "_load_workload_cached")
    return calls


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_tabulate_is_pure(name, all_results, replays_and_loads):
    experiment = get_experiment(name)
    store = default_store()
    sims_before = simulation_count()
    if store is not None:
        store.reset_counters()
    first = render(experiment.tabulate(all_results))
    second = render(experiment.tabulate(all_results))
    assert first == second, f"{name} tabulate is not deterministic"
    assert simulation_count() == sims_before, (
        f"{name} tabulate ran a simulation"
    )
    assert not replays_and_loads, (
        f"{name} tabulate called {sorted(set(replays_and_loads))}"
    )
    if store is not None:
        assert store.hits == store.misses == store.puts == 0, (
            f"{name} tabulate touched the result store"
        )


def test_tabulate_missing_result_has_usable_error(all_results):
    experiment = get_experiment("figure4_dcache_accesses")
    with pytest.raises(KeyError, match="missing a result"):
        experiment.tabulate({})


def test_tabulating_prefetched_results_matches_run_experiment(all_results):
    direct = render(run_experiment("figure8_total_power"))
    prefetched = render(
        get_experiment("figure8_total_power").tabulate(all_results)
    )
    assert direct == prefetched


# ----------------------------------------------------------------------
# acceptance: repro report --url vs local, against golden snapshots
# ----------------------------------------------------------------------

@pytest.fixture()
def service_url():
    from repro.service import create_server

    server = create_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_report_url_is_byte_identical_with_zero_local_sims(service_url):
    from repro.experiments import report

    names = [
        "figure4_dcache_accesses", "figure5_dcache_power", "table2_delay",
    ]
    local = report.generate(names)        # warms the (shared) store
    store = default_store()
    assert store is not None
    store.reset_counters()
    sims_before = simulation_count()
    remote = report.generate(names, url=service_url)
    assert remote == local
    assert simulation_count() == sims_before, (
        "report --url must not simulate locally"
    )
    assert store.misses == 0, (
        "report --url over a warm server store must be all hits"
    )


def test_remote_results_reproduce_golden_snapshot(service_url):
    from repro.service import ServiceClient

    name = "figure4_dcache_accesses"
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    results = ServiceClient(service_url).run_experiment(name)
    rendered = render(get_experiment(name).tabulate(results)) + "\n"
    assert rendered == golden

"""Full reproduction report generator.

``repro report [-o FILE] [--workers N] [--url URL]`` runs every
registered experiment and renders one self-contained markdown
document: the reproduced tables and figures, each with its paper
reference and notes.  This is the artefact to diff across code
changes — if an optimisation or fix shifts any reproduced number, the
report shows where.

The generator iterates the central experiment registry
(:mod:`repro.experiments.registry`): every experiment's declared
design points go into one deduplicated
:func:`~repro.experiments.registry.fetch_results` batch, and each
finished table is that experiment's pure ``tabulate`` over the
evaluated results.  Where the batch is evaluated is a transport
choice:

* **locally** (default), through :func:`repro.api.evaluate_many` —
  fanned over the shared worker pool and read through the persistent
  result store, so a warm store regenerates the whole report with
  **zero simulations**;
* **remotely** (``url=...`` / ``repro report --url``), against a
  running evaluation service: after a ``GET /v1/healthz`` code-
  fingerprint check (a version-skewed server is refused with a 409),
  the same batch goes through one ``POST /v1/batch`` — the server
  evaluates through *its* store and this process only tabulates and
  renders.  (Per-experiment mappings are also served directly at
  ``POST /v1/experiments/{name}`` for external clients —
  :meth:`repro.service.client.ServiceClient.run_experiment`.)

Either way the output bytes are identical (timing is reported on the
progress stream, never in the document); ``python -m
repro.api.determinism_check`` proves the local/remote identity.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.experiments.registry import (
    EXPERIMENTS,
    fetch_results,
    get_experiment,
)
from repro.experiments.reporting import ExperimentResult, format_cell


def _to_markdown(result: ExperimentResult) -> str:
    lines = [f"## {result.title}", ""]
    if result.paper_reference:
        lines += [f"*Paper:* {result.paper_reference}", ""]
    header = list(result.columns)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in result.rows:
        cells = [format_cell(row.get(col, "")) for col in header]
        lines.append("| " + " | ".join(cells) + " |")
    for note in result.notes:
        lines += ["", f"> {note}"]
    lines.append("")
    return "\n".join(lines)


def generate(
    experiments: Optional[List[str]] = None,
    progress: bool = False,
    workers: Optional[int] = 1,
    url: Optional[str] = None,
) -> str:
    """Run ``experiments`` (default: all) and return the markdown.

    ``workers`` sizes the prefetch pool (None = all cores); ``url``
    evaluates on a running service instead of in this process.
    Rendering order and output bytes are independent of both.
    """
    names = list(experiments or EXPERIMENTS)
    records = [get_experiment(name) for name in names]
    results = fetch_results(
        [spec for record in records for spec in record.specs()],
        workers=workers, url=url, progress=progress,
    )
    sections = [
        "# Reproduction report",
        "",
        "Ishihara & Fallah, *A Way Memoization Technique for Reducing "
        "Power Consumption of Caches in Application Specific Integrated "
        "Processors*, DATE 2005.",
        "",
        f"Experiments: {', '.join(names)}",
        "",
    ]
    for record in records:
        started = time.perf_counter()
        result = record.tabulate(results)
        elapsed = time.perf_counter() - started
        if progress:
            print(f"  {record.name} done in {elapsed:.1f} s", flush=True)
        sections.append(_to_markdown(result))
        sections.append("")
    return "\n".join(sections)


def main(
    output: Optional[str] = None,
    workers: Optional[int] = None,
    url: Optional[str] = None,
    experiments: Optional[List[str]] = None,
) -> None:
    markdown = generate(
        experiments=experiments, progress=True, workers=workers, url=url
    )
    from repro.store import default_store

    store = default_store()
    if store is not None:
        print(
            f"  result store: {store.hits} hit(s), "
            f"{store.misses} miss(es) this run", flush=True,
        )
    if output:
        with open(output, "w") as handle:
            handle.write(markdown)
        print(f"wrote {output}")
    else:
        print(markdown)


if __name__ == "__main__":
    main()

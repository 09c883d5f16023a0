"""Ablation: sensitivity to the fetch-packet width assumption.

This reproduction models the FR-V as fetching one aligned 8-byte
packet (two instructions) per cycle.  That assumption shapes the
I-cache access stream: wider packets mean fewer I-cache accesses and
a different intra-line/inter-line split.  This ablation re-derives
the fetch stream at 4, 8 and 16 bytes per packet and re-measures the
Figure-6 quantities — checking that the paper's qualitative I-cache
conclusions do not hinge on the packet-width guess.

Re-derived fetch streams are not addressable run specs (a workload's
stream is fixed at the modelled 8-byte packet), so this experiment
declares no specs and replays the alternative streams inside
``tabulate``.
"""

from __future__ import annotations

from typing import List

from repro.api import RunSpec
from repro.baselines import PanwarICache
from repro.core import MABConfig, WayMemoICache
from repro.experiments.registry import Experiment, ResultMap, register
from repro.experiments.reporting import ExperimentResult, average
from repro.sim import fetch_stream
from repro.workloads import BENCHMARK_NAMES, load_workload

PACKET_BYTES = (4, 8, 16)


def specs() -> List[RunSpec]:
    """Re-derived fetch streams — no declarative design points."""
    return []


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(columns=(
        "packet_bytes", "accesses_per_kinstr", "intra_line_pct",
        "panwar_tags", "memo_tags", "memo_vs_panwar_pct",
    ))
    for packet in PACKET_BYTES:
        access_rates, intra, panwar_tags, memo_tags = [], [], [], []
        for benchmark in BENCHMARK_NAMES:
            workload = load_workload(benchmark)
            fs = fetch_stream(workload.trace.flow, packet)
            p = PanwarICache().process(fs)
            m = WayMemoICache(mab_config=MABConfig(2, 16)).process(fs)
            access_rates.append(
                1000.0 * len(fs) / workload.trace.instructions
            )
            intra.append(100.0 * p.intra_line_hits / p.accesses)
            panwar_tags.append(p.tags_per_access)
            memo_tags.append(m.tags_per_access)
        p_avg = average(panwar_tags)
        m_avg = average(memo_tags)
        result.add_row(
            packet_bytes=packet,
            accesses_per_kinstr=average(access_rates),
            intra_line_pct=average(intra),
            panwar_tags=p_avg,
            memo_tags=m_avg,
            memo_vs_panwar_pct=100.0 * (1 - m_avg / p_avg),
        )
    result.notes.append(
        "the MAB removes the bulk of [4]'s residual tag accesses at "
        "every packet width; wider packets raise the inter-line share "
        "that only the MAB can capture"
    )
    return result


EXPERIMENT = register(Experiment(
    name="ablation_fetch_width",
    title="Ablation: fetch packet width vs I-cache results",
    specs=specs,
    tabulate=tabulate,
    category="trace-derived",
    paper_reference=(
        "the FR-V fetches 8-byte packets; the reproduction's "
        "conclusions should survive other widths"
    ),
))

"""Derive the I-cache access stream from a flow trace.

The FR-V fetches an aligned 8-byte packet (two 4-byte instructions) per
cycle; each packet fetch is one I-cache access.  Given the run-length
encoded :class:`~repro.sim.trace.FlowTrace`, this module produces one
record per packet access together with the address-generation inputs of
the paper's Figure 2 input mux:

========== =================================== =========================
kind       when                                MAB inputs (base, disp)
========== =================================== =========================
START      first fetch of the program          (entry, 0) — cold
SEQ        fall-through to the next packet     (previous packet, +stride)
BRANCH     taken branch / direct ``jal``       (branch PC, offset)
INDIRECT   ``jalr`` (returns, indirect calls)  (register value, imm)
========== =================================== =========================

``INDIRECT`` covers the paper's "address stored in a link register"
input; ``SEQ`` is the inter- or intra-cache-line sequential flow whose
stride equals the fetch packet size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cache.config import DEFAULT_FETCH_BYTES
from repro.sim.trace import FlowKind, FlowTrace


class FetchKind(enum.IntEnum):
    """How a fetch-packet access was triggered."""

    START = 0
    SEQ = 1
    BRANCH = 2
    INDIRECT = 3


@dataclass(frozen=True)
class FetchStream:
    """Per-I-cache-access record arrays.

    Attributes
    ----------
    addr:
        uint32 packet addresses (aligned to ``packet_bytes``).
    kind:
        uint8 :class:`FetchKind` values.
    base, disp:
        Address-generation inputs feeding the MAB for this access.
        ``base + disp`` always lands inside the packet at ``addr``.
    packet_bytes:
        Fetch packet size used to derive the stream.
    """

    addr: np.ndarray
    kind: np.ndarray
    base: np.ndarray
    disp: np.ndarray
    packet_bytes: int

    def __len__(self) -> int:
        return len(self.addr)


_FLOW_TO_FETCH = {
    int(FlowKind.START): int(FetchKind.START),
    int(FlowKind.BRANCH): int(FetchKind.BRANCH),
    int(FlowKind.INDIRECT): int(FetchKind.INDIRECT),
}


def fetch_stream(
    flow: FlowTrace, packet_bytes: int = DEFAULT_FETCH_BYTES
) -> FetchStream:
    """Expand a run-length flow trace into per-packet I-cache accesses.

    For every run the first packet access carries the run's entry kind
    and address-generation inputs; subsequent packets of the run are
    ``SEQ`` accesses with base = previous packet address and
    disp = ``packet_bytes`` (the PC stride of Figure 2).
    """
    if packet_bytes & (packet_bytes - 1) or packet_bytes < 4:
        raise ValueError("packet_bytes must be a power of two >= 4")
    if len(flow) == 0:
        empty = np.empty(0, dtype=np.uint32)
        return FetchStream(
            addr=empty, kind=empty.astype(np.uint8),
            base=empty.copy(), disp=empty.astype(np.int32),
            packet_bytes=packet_bytes,
        )

    mask = ~np.uint32(packet_bytes - 1)
    start = flow.start.astype(np.uint32)
    # Address of the last instruction of each run.
    last = (start + 4 * (flow.count.astype(np.uint32) - 1)).astype(np.uint32)
    first_packet = start & mask
    last_packet = last & mask
    packets_per_run = (
        ((last_packet - first_packet) // packet_bytes) + 1
    ).astype(np.int64)

    total = int(packets_per_run.sum())
    run_id = np.repeat(np.arange(len(flow)), packets_per_run)
    offsets = np.concatenate(([0], np.cumsum(packets_per_run)[:-1]))
    pos_in_run = np.arange(total) - offsets[run_id]

    addr = (
        first_packet[run_id].astype(np.int64) + packet_bytes * pos_in_run
    ).astype(np.uint32)
    entry = pos_in_run == 0

    kind_map = np.vectorize(_FLOW_TO_FETCH.get, otypes=[np.uint8])
    entry_kinds = kind_map(flow.kind.astype(int))
    kind = np.where(
        entry, entry_kinds[run_id], np.uint8(int(FetchKind.SEQ))
    ).astype(np.uint8)
    base = np.where(
        entry, flow.base[run_id], (addr - packet_bytes).astype(np.uint32)
    ).astype(np.uint32)
    disp = np.where(
        entry, flow.disp[run_id], np.int32(packet_bytes)
    ).astype(np.int32)

    return FetchStream(
        addr=addr, kind=kind, base=base, disp=disp,
        packet_bytes=packet_bytes,
    )

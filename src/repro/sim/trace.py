"""Compact numpy-backed execution traces.

Two streams are recorded while the CPU runs:

* :class:`DataTrace` — one record per load/store with the *(base,
  displacement)* pair the address-generation unit receives.  These are
  the exact inputs of the D-cache MAB (paper Figure 1): the MAB match is
  performed on the base's upper tag bits and a 14-bit partial sum, never
  on the full 32-bit effective address.
* :class:`FlowTrace` — straight-line *runs* of instructions plus the
  control transfer that entered each run.  Sequential flow inside a run
  is implicit, which keeps the trace small and fast to record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


class FlowKind(enum.IntEnum):
    """How control arrived at the first instruction of a run."""

    START = 0     #: program entry (cold start)
    BRANCH = 1    #: taken conditional branch or direct ``jal``
    INDIRECT = 2  #: ``jalr`` — register-indirect jump (incl. returns)


@dataclass(frozen=True)
class DataTrace:
    """Per-load/store address-generation record arrays.

    Attributes
    ----------
    base:
        uint32 base-register values.
    disp:
        int32 displacements (the instruction immediates).
    store:
        bool, True for stores.
    """

    base: np.ndarray
    disp: np.ndarray
    store: np.ndarray

    def __post_init__(self):
        if not len(self.base) == len(self.disp) == len(self.store):
            raise ValueError("data trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.base)

    @property
    def addr(self) -> np.ndarray:
        """Effective addresses, uint32."""
        return (
            self.base.astype(np.int64) + self.disp.astype(np.int64)
        ).astype(np.uint32)

    @property
    def num_loads(self) -> int:
        return int(len(self) - self.store.sum())

    @property
    def num_stores(self) -> int:
        return int(self.store.sum())

    @staticmethod
    def from_lists(base, disp, store) -> "DataTrace":
        return DataTrace(
            base=np.asarray(base, dtype=np.uint32),
            disp=np.asarray(disp, dtype=np.int32),
            store=np.asarray(store, dtype=bool),
        )


@dataclass(frozen=True)
class FlowTrace:
    """Run-length encoded instruction flow.

    Run ``i`` executes ``count[i]`` sequential instructions starting at
    ``start[i]``; it was entered via ``kind[i]`` with address-generation
    inputs ``base[i]`` + ``disp[i]`` (for ``BRANCH`` the branch PC and
    its offset, for ``INDIRECT`` the register value and the ``jalr``
    immediate — Figure 2's input mux).
    """

    start: np.ndarray
    count: np.ndarray
    kind: np.ndarray
    base: np.ndarray
    disp: np.ndarray

    def __post_init__(self):
        lengths = {
            len(self.start), len(self.count), len(self.kind),
            len(self.base), len(self.disp),
        }
        if len(lengths) != 1:
            raise ValueError("flow trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.start)

    @property
    def num_instructions(self) -> int:
        return int(self.count.sum())

    @staticmethod
    def from_lists(start, count, kind, base, disp) -> "FlowTrace":
        return FlowTrace(
            start=np.asarray(start, dtype=np.uint32),
            count=np.asarray(count, dtype=np.uint32),
            kind=np.asarray(kind, dtype=np.uint8),
            base=np.asarray(base, dtype=np.uint32),
            disp=np.asarray(disp, dtype=np.int32),
        )

    def expand_pcs(self) -> np.ndarray:
        """Expand to the full per-instruction PC stream (for tests)."""
        total = self.num_instructions
        out = np.empty(total, dtype=np.uint32)
        pos = 0
        for start, count in zip(self.start, self.count):
            out[pos : pos + count] = start + 4 * np.arange(
                count, dtype=np.uint32
            )
            pos += count
        return out


@dataclass
class ExecutionTrace:
    """Everything one program run exposes to the cache architectures."""

    program_name: str
    data: DataTrace
    flow: FlowTrace
    instructions: int
    #: instruction mix histogram, mnemonic -> count
    mix: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        d = self.data
        return (
            f"{self.program_name}: {self.instructions} instructions, "
            f"{len(d)} data accesses ({d.num_loads} loads / "
            f"{d.num_stores} stores), {len(self.flow)} basic-block runs"
        )


class TraceRecorder:
    """Mutable trace builder used by the CPU while executing."""

    def __init__(self) -> None:
        self.data_base: List[int] = []
        self.data_disp: List[int] = []
        self.data_store: List[int] = []
        self.run_start: List[int] = []
        self.run_count: List[int] = []
        self.run_kind: List[int] = []
        self.run_base: List[int] = []
        self.run_disp: List[int] = []

    def begin_run(self, pc: int, kind: int, base: int, disp: int) -> None:
        self.run_start.append(pc)
        self.run_count.append(0)
        self.run_kind.append(kind)
        self.run_base.append(base)
        self.run_disp.append(disp)

    def step(self) -> None:
        self.run_count[-1] += 1

    def record_data(self, base: int, disp: int, store: bool) -> None:
        self.data_base.append(base)
        self.data_disp.append(disp)
        self.data_store.append(store)

    def finish(self, program_name: str, instructions: int, mix=None
               ) -> ExecutionTrace:
        return ExecutionTrace(
            program_name=program_name,
            data=DataTrace.from_lists(
                self.data_base, self.data_disp, self.data_store
            ),
            flow=FlowTrace.from_lists(
                self.run_start, self.run_count, self.run_kind,
                self.run_base, self.run_disp,
            ),
            instructions=instructions,
            mix=dict(mix or {}),
        )

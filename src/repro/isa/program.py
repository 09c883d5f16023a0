"""Assembled program container.

A :class:`Program` is the unit handed from the assembler to the CPU
simulator: a text segment of encoded instruction words, a data segment
of initialised bytes, and the symbol table produced during assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.isa.encoding import decode
from repro.isa.instructions import INSTRUCTION_BYTES, Instruction

#: Default segment base addresses (1 MiB of simulated memory).
TEXT_BASE = 0x0000_0000
DATA_BASE = 0x0004_0000
STACK_TOP = 0x000F_FFF0
MEMORY_BYTES = 0x0010_0000


@dataclass(frozen=True)
class Segment:
    """A contiguous range of initialised memory."""

    base: int
    data: bytes

    @property
    def end(self) -> int:
        """First address past the segment."""
        return self.base + len(self.data)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


@dataclass
class Program:
    """An assembled FRL-32 program.

    Attributes
    ----------
    name:
        Human-readable program name (used in reports).
    text:
        Text segment; ``text.data`` holds little-endian instruction words.
    data:
        Data segment with initialised globals.
    symbols:
        Label name -> absolute address.
    entry:
        Address of the first instruction to execute.
    """

    name: str
    text: Segment
    data: Segment
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE

    @property
    def num_instructions(self) -> int:
        return len(self.text.data) // INSTRUCTION_BYTES

    def instruction_words(self) -> List[int]:
        """Return text-segment words as integers (little-endian)."""
        raw = self.text.data
        return [
            int.from_bytes(raw[i : i + 4], "little")
            for i in range(0, len(raw), 4)
        ]

    def instructions(self) -> List[Instruction]:
        """Decode the whole text segment."""
        return [decode(word) for word in self.instruction_words()]

    def symbol(self, name: str) -> int:
        """Address of label ``name`` (KeyError when undefined)."""
        return self.symbols[name]

    def disassemble(self) -> str:
        """Return a human-readable listing of the text segment."""
        addr_to_label = {addr: lbl for lbl, addr in self.symbols.items()}
        lines = []
        pc = self.text.base
        for insn in self.instructions():
            if pc in addr_to_label:
                lines.append(f"{addr_to_label[pc]}:")
            lines.append(f"  {pc:#010x}: {insn}")
            pc += INSTRUCTION_BYTES
        return "\n".join(lines)

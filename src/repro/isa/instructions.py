"""Static instruction objects.

A static :class:`Instruction` is what the compiler emits and what a
:class:`~repro.isa.program.Program` contains.  The trace generator executes
these instructions (interpreting the scalar subset for real) to produce the
dynamic instruction records consumed by the simulators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.isa.opcodes import InstrKind, MemAccess, Opcode
from repro.isa.registers import Register

#: size in bytes of every vector element and scalar datum (64-bit machine)
ELEMENT_BYTES = 8

#: comparison conditions accepted by CMP / VCMP / BR
CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge")

_instruction_ids = itertools.count()


@dataclass
class Instruction:
    """One static instruction.

    Only the fields relevant to the opcode are populated; e.g. ``target`` is
    meaningful only for branches, ``cond`` only for compares and conditional
    branches, and ``region_bytes`` only for indexed (gather/scatter) memory
    operations where the accessed range cannot be derived from base and
    stride alone.
    """

    opcode: Opcode
    dest: Optional[Register] = None
    srcs: tuple[Register, ...] = ()
    imm: Optional[int] = None
    cond: Optional[str] = None
    target: Optional[str] = None
    #: marks compiler-generated spill/reload code (Table 3 accounting)
    is_spill: bool = False
    #: conservative size of the region touched by an indexed memory access
    region_bytes: Optional[int] = None
    comment: str = ""
    #: unique id assigned at construction, used for stable ordering/debugging
    uid: int = field(default_factory=lambda: next(_instruction_ids))

    def __post_init__(self) -> None:
        if self.cond is not None and self.cond not in CONDITIONS:
            raise ValueError(f"unknown condition {self.cond!r}")
        if self.opcode.kind is InstrKind.BRANCH and self.opcode is not Opcode.RET:
            if self.target is None:
                raise ValueError(f"{self.opcode} requires a branch target")
        if not isinstance(self.srcs, tuple):
            self.srcs = tuple(self.srcs)

    # -- classification helpers -------------------------------------------

    @property
    def kind(self) -> InstrKind:
        return self.opcode.kind

    @property
    def is_vector(self) -> bool:
        return self.opcode.is_vector

    @property
    def is_memory(self) -> bool:
        return self.opcode.is_memory

    @property
    def is_load(self) -> bool:
        return self.opcode.kind.is_load

    @property
    def is_store(self) -> bool:
        return self.opcode.kind.is_store

    @property
    def is_branch(self) -> bool:
        return self.opcode.kind is InstrKind.BRANCH

    @property
    def access(self) -> MemAccess:
        return self.opcode.info.access

    # -- register def/use sets --------------------------------------------

    def defined_registers(self) -> tuple[Register, ...]:
        """Registers written by this instruction."""
        return (self.dest,) if self.dest is not None else ()

    def used_registers(self) -> tuple[Register, ...]:
        """Registers read by this instruction."""
        return self.srcs

    def registers(self) -> tuple[Register, ...]:
        """All registers referenced by this instruction."""
        return self.defined_registers() + self.used_registers()

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        parts = [str(self.opcode)]
        operands: list[str] = []
        if self.dest is not None:
            operands.append(str(self.dest))
        operands.extend(str(s) for s in self.srcs)
        if self.imm is not None:
            operands.append(f"#{self.imm}")
        if self.cond is not None:
            operands.append(f".{self.cond}")
        if self.target is not None:
            operands.append(f"->{self.target}")
        text = parts[0]
        if operands:
            text += " " + ", ".join(operands)
        if self.is_spill:
            text += "   ; spill"
        elif self.comment:
            text += f"   ; {self.comment}"
        return text


def count_kinds(instructions: Iterable[Instruction]) -> dict[InstrKind, int]:
    """Count static instructions per kind (useful for compiler diagnostics)."""
    counts: dict[InstrKind, int] = {}
    for instr in instructions:
        counts[instr.kind] = counts.get(instr.kind, 0) + 1
    return counts

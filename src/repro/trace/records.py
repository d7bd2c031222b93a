"""Dynamic-instruction records.

A trace is a list of :class:`DynInstr` records, one per dynamic instruction,
in program order.  This mirrors the paper's methodology (Section 3): the
benchmark executables are traced once and the resulting trace is fed to both
the reference and the OOOVA simulators, so both architectures see exactly
the same dynamic instruction stream, addresses, vector lengths and strides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.instructions import ELEMENT_BYTES
from repro.isa.opcodes import InstrKind, MemAccess, Opcode
from repro.isa.registers import Register


@dataclass
class DynInstr:
    """One dynamic instruction as seen by the simulators."""

    #: position in the dynamic instruction stream (0-based)
    seq: int
    opcode: Opcode
    #: static-instruction identity (used for branch prediction structures)
    pc: int
    dest: Optional[Register] = None
    srcs: tuple[Register, ...] = ()

    #: vector length in effect when the instruction executed (vector ops only)
    vl: int = 0
    #: stride in bytes (strided vector memory ops only)
    stride: int = ELEMENT_BYTES

    #: base byte address of a memory access
    address: Optional[int] = None
    #: conservative byte range touched by a memory access: [start, end)
    region_start: Optional[int] = None
    region_end: Optional[int] = None

    #: True when this instruction is compiler-generated spill/reload code
    is_spill: bool = False

    #: branch outcome information
    taken: bool = False
    target_pc: Optional[int] = None
    is_call: bool = False
    is_return: bool = False

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
        return self.kind.is_load

    @property
    def is_store(self) -> bool:
        return self.kind.is_store

    @property
    def is_branch(self) -> bool:
        return self.kind is InstrKind.BRANCH

    @property
    def access(self) -> MemAccess:
        return self.opcode.info.access

    @property
    def memory_ops(self) -> int:
        """Number of memory requests this instruction sends on the address bus."""
        if not self.is_memory:
            return 0
        return self.vl if self.is_vector else 1

    def overlaps(self, other: "DynInstr") -> bool:
        """True when the two memory instructions may touch a common byte.

        Both regions are the conservative [start, end) ranges computed at
        trace-generation time, exactly what the OOOVA's Range stage computes
        from base address, vector length and stride.
        """
        if self.region_start is None or other.region_start is None:
            return False
        return self.region_start < other.region_end and other.region_start < self.region_end

    def __str__(self) -> str:
        pieces = [f"#{self.seq}", str(self.opcode)]
        if self.dest is not None:
            pieces.append(str(self.dest))
        if self.srcs:
            pieces.append(",".join(str(s) for s in self.srcs))
        if self.is_vector:
            pieces.append(f"vl={self.vl}")
        if self.address is not None:
            pieces.append(f"@0x{self.address:x}")
        if self.is_branch:
            pieces.append("taken" if self.taken else "not-taken")
        if self.is_spill:
            pieces.append("(spill)")
        return " ".join(pieces)


@dataclass
class Trace:
    """A complete dynamic instruction trace plus identifying metadata."""

    name: str
    instructions: list[DynInstr] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> DynInstr:
        return self.instructions[idx]

    def append(self, instr: DynInstr) -> None:
        self.instructions.append(instr)

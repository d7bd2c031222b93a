"""Machine-parameter dataclasses shared by both simulators.

The numbers follow Section 2 and Table 1 of the paper.  Table 1 in the
scanned text is partially garbled; where a value is unreadable we use the
closest value consistent with the prose.  Nothing in the repository records
which values were read and which were inferred; the qualitative results
depend on the *relative* cost of memory versus computation.

Two architectures are parameterised here:

* :class:`ReferenceParams` — the in-order Convex C3400-like reference
  machine (Section 2.1).
* :class:`OOOParams` — the out-of-order, register-renaming OOOVA machine
  (Section 2.2), including the commit model of Section 5 and the dynamic
  load elimination configuration of Section 6.

:class:`InOrderParams` — the same knobs for the registered ``inorder``
intermediate machine — lives here too, so building or decoding a
configuration never imports a machine implementation.  The dataclasses
carry no serialisation code: :func:`repro.core.machines.params_to_dict`
stamps them with the name of the machine model registered for their type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError

#: Maximum number of 64-bit elements held by one vector register.
MAX_VECTOR_LENGTH = 128

#: Number of architected registers per class in the Convex-like ISA.
NUM_ARCH_VREGS = 8
NUM_ARCH_AREGS = 8
NUM_ARCH_SREGS = 8
NUM_ARCH_MASKREGS = 8


class CommitModel(enum.Enum):
    """How the OOOVA releases physical registers and retires stores.

    ``EARLY``  — the aggressive model of Section 2.2: a vector instruction's
    reorder-buffer slot becomes committable as soon as the instruction
    *begins* execution, and the old physical register is released when the
    slot reaches the head of the buffer.  Stores may execute as soon as
    their data is ready.  Precise exceptions are not possible.

    ``LATE`` — the precise-trap model of Section 5: an instruction commits
    only after it has fully completed, and stores execute only when they are
    the oldest uncommitted instruction (head of the reorder buffer).
    """

    EARLY = "early"
    LATE = "late"


class LoadElimination(enum.Enum):
    """Dynamic load elimination configuration (Section 6)."""

    NONE = "none"
    #: scalar load elimination only (A and S registers)
    SLE = "sle"
    #: scalar and vector load elimination
    SLE_VLE = "sle+vle"


@dataclass(frozen=True)
class FunctionalUnitLatencies:
    """Pipeline depths, in cycles, of the vector and scalar functional units.

    A vector instruction produces its first result ``<latency>`` cycles after
    it starts and one further element per cycle after that; the functional
    unit is occupied for ``vector_length`` cycles.
    """

    #: simple integer/logical/shift vector operations (FU1 or FU2)
    logical: int = 3
    #: floating point add/subtract/compare
    add: int = 4
    #: floating point / integer multiply (FU2 only)
    mul: int = 4
    #: divide (FU2 only)
    div: int = 9
    #: square root (FU2 only)
    sqrt: int = 9
    #: cycles to cross the read crossbar from a register to a unit
    read_crossbar: int = 1
    #: cycles to cross the write crossbar back into the register file
    write_crossbar: int = 2
    #: fixed start-up overhead charged to every vector instruction
    vector_startup: int = 4
    #: scalar ALU operation latency
    scalar_alu: int = 1
    #: scalar multiply latency
    scalar_mul: int = 3
    #: scalar divide latency
    scalar_div: int = 9
    #: latency of a scalar memory access (the C34 caches scalar data)
    scalar_mem: int = 8

    def vector_op_latency(self, op_class: str) -> int:
        """Return the pipeline depth for a vector op class name.

        ``op_class`` is one of ``logical``, ``add``, ``mul``, ``div``,
        ``sqrt``.
        """
        try:
            return int(getattr(self, op_class))
        except AttributeError as exc:
            raise ConfigurationError(f"unknown vector op class: {op_class!r}") from exc


@dataclass(frozen=True)
class MemoryParams:
    """Main-memory timing model (Section 2.2, "Machine Parameters").

    There is a single address bus shared by all memory transactions and
    physically separate data busses for sending and receiving data.  Vector
    loads pay ``latency`` cycles and then receive one datum per cycle;
    vector stores occupy the address bus but do not expose latency.
    """

    #: main-memory latency in cycles (the paper varies this from 1 to 100)
    latency: int = 50

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("memory latency must be non-negative")


@dataclass(frozen=True)
class ReferenceParams:
    """Parameters of the in-order reference architecture (Convex C3400),
    whose banked register file holds the :data:`NUM_ARCH_VREGS` V registers."""

    latencies: FunctionalUnitLatencies = field(default_factory=FunctionalUnitLatencies)
    memory: MemoryParams = field(default_factory=MemoryParams)
    #: vector registers per register-file bank (banks share 2R + 1W ports)
    vregs_per_bank: int = 2
    #: read ports per register bank
    bank_read_ports: int = 2
    #: write ports per register bank
    bank_write_ports: int = 1
    #: fetch bubble charged after a taken branch on the in-order machine
    taken_branch_penalty: int = 2

    def __post_init__(self) -> None:
        if self.vregs_per_bank < 1:
            raise ConfigurationError("a register bank needs at least one register")
        if self.bank_read_ports < 1 or self.bank_write_ports < 1:
            raise ConfigurationError(
                "a register bank needs at least one read and one write port")
        if self.taken_branch_penalty < 0:
            raise ConfigurationError("taken-branch penalty must be non-negative")

    def with_memory_latency(self, latency: int) -> "ReferenceParams":
        """Return a copy of these parameters with a different memory latency."""
        return replace(self, memory=replace(self.memory, latency=latency))


@dataclass(frozen=True)
class OOOParams:
    """Parameters of the out-of-order, renaming OOOVA architecture."""

    latencies: FunctionalUnitLatencies = field(default_factory=FunctionalUnitLatencies)
    memory: MemoryParams = field(default_factory=MemoryParams)

    #: number of *physical* vector registers (the paper sweeps 9..64)
    num_phys_vregs: int = 16
    #: physical scalar register files (Section 2.2: 64 each)
    num_phys_aregs: int = 64
    num_phys_sregs: int = 64
    #: physical mask registers
    num_phys_maskregs: int = 8

    #: reorder-buffer entries
    rob_entries: int = 64
    #: slots in each of the four instruction queues (A, S, V, M)
    queue_slots: int = 16
    #: maximum instructions committed per cycle
    commit_width: int = 4

    #: branch target buffer entries (2-bit saturating counters)
    btb_entries: int = 64
    #: return-address-stack depth
    ras_depth: int = 8
    #: extra fetch bubble charged on a branch misprediction, on top of
    #: waiting for the branch to resolve
    branch_mispredict_penalty: int = 2

    commit_model: CommitModel = CommitModel.EARLY
    load_elimination: LoadElimination = LoadElimination.NONE

    def __post_init__(self) -> None:
        if self.num_phys_vregs < NUM_ARCH_VREGS + 1:
            raise ConfigurationError(
                "the OOOVA needs at least one more physical vector register "
                f"than the {NUM_ARCH_VREGS} architected ones "
                f"(got {self.num_phys_vregs})"
            )
        if self.num_phys_aregs < NUM_ARCH_AREGS + 1:
            raise ConfigurationError("too few physical A registers")
        if self.num_phys_sregs < NUM_ARCH_SREGS + 1:
            raise ConfigurationError("too few physical S registers")
        if self.num_phys_maskregs < NUM_ARCH_MASKREGS:
            raise ConfigurationError("too few physical mask registers")
        if self.rob_entries < 1:
            raise ConfigurationError("reorder buffer needs at least one entry")
        if self.queue_slots < 1:
            raise ConfigurationError("instruction queues need at least one slot")
        if self.commit_width < 1:
            raise ConfigurationError("commit width must be positive")
        if self.btb_entries < 1 or self.ras_depth < 1:
            raise ConfigurationError(
                "the branch target buffer and return-address stack need "
                "at least one entry")
        if self.branch_mispredict_penalty < 0:
            raise ConfigurationError("misprediction penalty must be non-negative")

    def with_memory_latency(self, latency: int) -> "OOOParams":
        """Return a copy of these parameters with a different memory latency."""
        return replace(self, memory=replace(self.memory, latency=latency))


@dataclass(frozen=True)
class InOrderParams(OOOParams):
    """Parameters of the in-order-issue, renaming intermediate machine.

    Identical knobs to :class:`OOOParams` — the machines differ in issue
    policy, not in resources — but a distinct type, which is what the
    machine-model registry dispatches on (see :mod:`repro.machine.inorder`).
    """

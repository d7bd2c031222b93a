"""Trace-level statistics: the quantities Tables 2 and 3 report.

Both machines see the same dynamic stream (Section 3), so a run's
instruction, element-operation and memory-traffic counts are the trace's
own, and only load elimination (Section 6) takes traffic off the bus.
:func:`count_instructions` is the one rule that counts them: the spec's
``StagedMachine.run_slice`` adds each slice's counts through it, and
:func:`compute_trace_statistics` runs it over a whole trace.  The batched
stepper's lowering counts the same quantities from its columns
(:attr:`repro.machine.batched.LoweredTrace.counts`), and the kernel tests
hold the two to each other.  No machine handler counts them.

The exhibits do not scan traces: :mod:`repro.core.experiments` reads
Tables 2 and 3 off the reference machine's stored result
(:meth:`TraceStatistics.from_stats`), so a warm run builds no trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable

from repro.common.stats import MemoryTraffic, SimStats

if TYPE_CHECKING:
    from repro.trace.records import DynInstr, Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Aggregate counts over one dynamic trace.

    Fields mirror the columns of Table 2 (instruction/operation counts,
    percentage of vectorisation, average vector length) and Table 3 (vector
    memory operations split into ordinary and spill traffic).
    """

    name: str
    scalar_instructions: int
    vector_instructions: int
    branch_instructions: int
    vector_operations: int

    vector_load_ops: int
    vector_load_spill_ops: int
    vector_store_ops: int
    vector_store_spill_ops: int
    scalar_load_ops: int
    scalar_load_spill_ops: int
    scalar_store_ops: int
    scalar_store_spill_ops: int

    @classmethod
    def from_stats(cls, name: str, stats: SimStats) -> TraceStatistics:
        """The counts of a run that eliminated no load, as the tables print them."""
        counts = {**vars(stats.traffic), **vars(stats)}
        return cls(name, **{f.name: counts[f.name] for f in fields(cls)[1:]})

    @property
    def total_instructions(self) -> int:
        return self.scalar_instructions + self.vector_instructions + self.branch_instructions

    @property
    def vectorization_percent(self) -> float:
        """Table 2, column 6: vector ops / (scalar instrs + vector ops)."""
        denominator = (
            self.scalar_instructions + self.branch_instructions + self.vector_operations
        )
        if denominator == 0:
            return 0.0
        return 100.0 * self.vector_operations / denominator

    @property
    def average_vector_length(self) -> float:
        """Table 2, column 7: vector operations per vector instruction."""
        if self.vector_instructions == 0:
            return 0.0
        return self.vector_operations / self.vector_instructions

    @property
    def spill_traffic_fraction(self) -> float:
        """Fraction of all memory words moved that are spill traffic."""
        total = (
            self.vector_load_ops
            + self.vector_store_ops
            + self.scalar_load_ops
            + self.scalar_store_ops
        )
        if total == 0:
            return 0.0
        spill = (
            self.vector_load_spill_ops
            + self.vector_store_spill_ops
            + self.scalar_load_spill_ops
            + self.scalar_store_spill_ops
        )
        return spill / total


def count_instructions(instructions: Iterable[DynInstr]) -> SimStats:
    """What ``instructions`` alone decide, as a :class:`SimStats` of counts.

    Each instruction is a branch, a vector instruction (ALU or memory) or a
    scalar one (vector control included).  A vector instruction adds its
    ``vl`` to ``vector_operations``.  A memory access puts ``max(vl, 1)``
    operations on the bus if it is a vector access and one if it is a
    scalar access, and a spill access counts them in the spill share too.
    """
    from repro.isa.opcodes import InstrKind

    stats = SimStats()
    bus: Counter[str] = Counter()
    for instr in instructions:
        kind = instr.kind
        if kind is InstrKind.BRANCH:
            stats.branch_instructions += 1
        elif kind.is_vector:
            stats.vector_instructions += 1
            stats.vector_operations += instr.vl
        else:
            stats.scalar_instructions += 1
        if kind.is_memory:
            # the kind's value ("vector_load", ...) prefixes its counters
            ops = max(instr.vl, 1) if kind.is_vector else 1
            bus[f"{kind.value}_ops"] += ops
            if instr.is_spill:
                bus[f"{kind.value}_spill_ops"] += ops
    stats.traffic = MemoryTraffic(**bus)
    return stats


def compute_trace_statistics(trace: Trace) -> TraceStatistics:
    """Count a trace once and return its :class:`TraceStatistics`."""
    return TraceStatistics.from_stats(trace.name, count_instructions(trace))

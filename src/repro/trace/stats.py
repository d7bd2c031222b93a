"""Trace-level statistics: the quantities Tables 2 and 3 report.

These statistics depend only on the trace, not on any micro-architecture.
The exhibits do not scan traces for them: the reference machine counts the
same instructions, operations and memory traffic while it simulates, so
:mod:`repro.core.experiments` reads Tables 2 and 3 off its stored result
and a warm run builds no trace.  :func:`compute_trace_statistics` stays the
trace-level API (``Workload.statistics()``, the examples) and the oracle
the test suite checks those counters against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.records import Trace


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


def compute_trace_statistics(trace: Trace) -> TraceStatistics:
    """Scan a trace once and compute its :class:`TraceStatistics`."""
    from repro.isa.opcodes import InstrKind

    scalar = vector = branches = vector_ops = 0
    vload = vload_spill = vstore = vstore_spill = 0
    sload = sload_spill = sstore = sstore_spill = 0

    for instr in trace:
        kind = instr.kind
        if kind is InstrKind.BRANCH:
            branches += 1
        elif instr.is_vector:
            vector += 1
            vector_ops += instr.vl
        else:
            scalar += 1

        if kind is InstrKind.VECTOR_LOAD:
            vload += instr.vl
            if instr.is_spill:
                vload_spill += instr.vl
        elif kind is InstrKind.VECTOR_STORE:
            vstore += instr.vl
            if instr.is_spill:
                vstore_spill += instr.vl
        elif kind is InstrKind.SCALAR_LOAD:
            sload += 1
            if instr.is_spill:
                sload_spill += 1
        elif kind is InstrKind.SCALAR_STORE:
            sstore += 1
            if instr.is_spill:
                sstore_spill += 1

    return TraceStatistics(
        name=trace.name,
        scalar_instructions=scalar,
        vector_instructions=vector,
        branch_instructions=branches,
        vector_operations=vector_ops,
        vector_load_ops=vload,
        vector_load_spill_ops=vload_spill,
        vector_store_ops=vstore,
        vector_store_spill_ops=vstore_spill,
        scalar_load_ops=sload,
        scalar_load_spill_ops=sload_spill,
        scalar_store_ops=sstore,
        scalar_store_spill_ops=sstore_spill,
    )

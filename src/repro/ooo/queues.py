"""Instruction queues of the OOOVA.

Section 2.2: after decode/rename, instructions are placed into one of four
queues based on type — A (address scalar), S (scalar), V (vector compute)
and M (memory).  All queues have 16 slots in the base configuration (the
paper also evaluates 128-slot queues).  The A, S and V queues issue an
instruction to its functional unit as soon as its operands are ready; the M
queue processes instructions in order through a three-stage address
pipeline before they become eligible for out-of-order memory issue.

For the timing model the important property of a queue is *occupancy*: when
a queue is full, decode stalls, which is one of the ways a long-latency
instruction can back the whole machine up.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush

from repro.common.errors import ConfigurationError
from repro.isa.opcodes import InstrKind
from repro.trace.records import DynInstr


class QueueKind(enum.Enum):
    """The four instruction queues."""

    A = "A"
    S = "S"
    V = "V"
    M = "M"


def route_queue(instr: DynInstr) -> QueueKind:
    """Select the queue an instruction is dispatched to, by instruction type."""
    kind = instr.kind
    if kind in (InstrKind.VECTOR_LOAD, InstrKind.VECTOR_STORE,
                InstrKind.SCALAR_LOAD, InstrKind.SCALAR_STORE):
        return QueueKind.M
    if kind is InstrKind.VECTOR_ALU:
        return QueueKind.V
    if kind is InstrKind.BRANCH:
        return QueueKind.A
    if kind is InstrKind.VECTOR_CONTROL:
        return QueueKind.A
    # scalar ALU: address arithmetic runs in the A unit, the rest in S
    from repro.isa.registers import RegClass

    if instr.dest is not None and instr.dest.cls is RegClass.A:
        return QueueKind.A
    if any(src.cls is RegClass.A for src in instr.srcs):
        return QueueKind.A
    return QueueKind.S


class IssueQueue:
    """Occupancy model of one instruction queue."""

    def __init__(self, kind: QueueKind, slots: int) -> None:
        if slots < 1:
            raise ConfigurationError("instruction queues need at least one slot")
        self.kind = kind
        self.slots = slots
        #: departure (issue) times of the instructions currently in the queue
        self._departures: list[int] = []
        #: total cycles admissions spent waiting on a full queue
        self.full_stall_cycles = 0

    def admit(self, earliest: int) -> int:
        """Admit an instruction at or after ``earliest``; stalls while full.

        Stall time is charged in cycles actually waited
        (``blocked_until - granted``), matching the ``queue_stall_cycles``
        statistic.
        """
        granted = earliest
        while len(self._departures) >= self.slots:
            next_departure = heappop(self._departures)
            if next_departure > granted:
                self.full_stall_cycles += next_departure - granted
                granted = next_departure
        return granted

    def register_departure(self, time: int) -> None:
        """Record when the admitted instruction leaves the queue (issues)."""
        heappush(self._departures, time)


class QueueSet:
    """The four queues of the machine."""

    def __init__(self, slots: int) -> None:
        self.queues = {kind: IssueQueue(kind, slots) for kind in QueueKind}

    @property
    def total_full_stall_cycles(self) -> int:
        return sum(queue.full_stall_cycles for queue in self.queues.values())

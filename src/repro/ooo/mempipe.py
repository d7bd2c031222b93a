"""The OOOVA memory pipeline: Issue/RF, Range and Dependence stages.

Section 2.2: memory instructions first proceed *in order* through a
three-stage pipeline.  The Range stage computes the range of addresses the
instruction may touch — every byte between the base address and
``base + (VL-1)*VS`` — and the Dependence stage compares that range against
all previous memory instructions still in the queue.  Once an instruction is
free of dependences it may issue its memory requests out of order.

Under dynamic load elimination (Section 6.2) *all* instructions that use a
vector register pass through this pipeline so that vector renaming happens
at a single point; the machine model charges that extra in-order traversal.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.resources import InOrderPipe
from repro.trace.records import DynInstr


class _PendingAccess(NamedTuple):
    """A memory instruction that has issued (or will issue) its addresses.

    A ``NamedTuple``: the disambiguation window is scanned per memory
    instruction, so the field reads are hot (C tuple getters), and the rows
    are never mutated once recorded.
    """

    seq: int
    region_start: int
    region_end: int
    is_store: bool
    #: cycle at which its last address has been sent (dependence released)
    address_done: int


class MemoryPipeline:
    """In-order front end of the memory queue plus run-time disambiguation."""

    def __init__(self, depth: int = 3) -> None:
        self.pipe = InOrderPipe(depth=depth)
        self._pending: list[_PendingAccess] = []
        #: subset of ``_pending`` that may still delay a future instruction.
        #: ``dependence_ready`` is always called with a monotonically
        #: increasing ``earliest`` (the in-order pipe exit), so a row whose
        #: ``address_done`` falls at or before one call's ``earliest`` can
        #: never constrain a later call and is dropped from the scan.
        self._active: list[_PendingAccess] = []
        self.dependence_stalls = 0

    # -- in-order address pipeline ---------------------------------------------

    def traverse(self, enter_time: int) -> int:
        """Pass one instruction through the Issue/RF → Range → Dependence stages."""
        return self.pipe.advance(enter_time)

    # -- run-time memory disambiguation ------------------------------------------

    def dependence_ready(self, instr: DynInstr, earliest: int) -> int:
        """Earliest cycle at which ``instr`` is free of memory dependences.

        A load must wait for every older overlapping store; a store must wait
        for every older overlapping access (load or store).  "Waiting" means
        waiting until the older access has finished sending its addresses —
        at that point it has left the memory queue and no longer blocks.
        """
        ready = earliest
        if instr.region_start is None:
            return ready
        active = self._active
        if not active:
            return ready
        start = instr.region_start
        end = instr.region_end
        is_store = instr.is_store
        live: list[_PendingAccess] = []
        keep = live.append
        for pending in active:
            done = pending.address_done
            if done <= earliest:
                continue  # dead for this and every future (later) call
            keep(pending)
            if done <= ready:
                continue
            if pending.region_start < end and start < pending.region_end:
                if is_store or pending.is_store:
                    ready = done
                    self.dependence_stalls += 1
        self._active = live
        return ready

    def register_access(self, instr: DynInstr, address_done: int) -> None:
        """Record an access so that younger instructions can be checked against it."""
        if instr.region_start is None:
            return
        entry = _PendingAccess(
            seq=instr.seq,
            region_start=instr.region_start,
            region_end=instr.region_end,
            is_store=instr.is_store,
            address_done=address_done,
        )
        self._pending.append(entry)
        self._active.append(entry)
        self._prune()

    def _prune(self) -> None:
        """Drop accesses that can no longer constrain anything new.

        Every younger memory instruction leaves the in-order address pipeline
        strictly after ``pipe.last_exit``, so accesses whose addresses were
        fully sent by then can never delay it.  This keeps the pending list
        short regardless of trace length.
        """
        if len(self._pending) < 256:
            return
        horizon = self.pipe.last_exit
        self._pending = [entry for entry in self._pending if entry.address_done > horizon]

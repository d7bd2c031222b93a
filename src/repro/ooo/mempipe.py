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
    """An older memory access a younger one may have to wait for.

    A ``NamedTuple``: the disambiguation window is scanned per memory
    instruction, so the field reads are hot (C tuple getters), and the rows
    are never mutated once recorded.
    """

    region_start: int
    region_end: int
    is_store: bool
    #: cycle at which its last address has been sent (dependence released)
    address_done: int


class MemoryPipeline:
    """In-order front end of the memory queue plus run-time disambiguation."""

    def __init__(self, depth: int = 3) -> None:
        self.pipe = InOrderPipe(depth=depth)
        #: the disambiguation window: older accesses that may still delay a
        #: future instruction, in program order.
        #: ``dependence_ready`` is always called with a monotonically
        #: increasing ``earliest`` (the in-order pipe exit), so a row whose
        #: ``address_done`` falls at or before one call's ``earliest`` can
        #: never constrain a later call and is dropped from the scan.
        self._active: list[_PendingAccess] = []

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
        self._active = live
        return ready

    def register_access(self, instr: DynInstr, address_done: int) -> None:
        """Record an access so that younger instructions can be checked against it."""
        if instr.region_start is None:
            return
        self._active.append(_PendingAccess(
            region_start=instr.region_start,
            region_end=instr.region_end,
            is_store=instr.is_store,
            address_done=address_done,
        ))

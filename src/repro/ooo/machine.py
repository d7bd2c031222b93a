"""Cycle-level timing simulator of the OOOVA (out-of-order vector) machine.

The model follows Section 2.2 of the paper, plus the precise-trap commit
model of Section 5 and dynamic load elimination of Section 6:

* instructions are fetched, decoded and renamed in program order at one per
  cycle, stalling when the reorder buffer, the target instruction queue or
  the relevant free list cannot accept them;
* renamed instructions wait in one of four queues (A, S, V, M) and issue to
  their functional unit out of order as soon as their operands are ready and
  the unit has a free slot;
* memory instructions first traverse the in-order Issue/RF → Range →
  Dependence pipeline, are disambiguated against older memory instructions
  by address range, and then issue memory requests out of order on the
  single address bus;
* under early commit a reorder-buffer entry retires once its instruction has
  begun execution; under late commit it retires only after completion and
  stores execute only at the head of the reorder buffer;
* with load elimination enabled, loads whose address tag exactly matches a
  physical register's tag never reach memory.

The machine is declared on the staged kernel
(:class:`repro.machine.core.StagedMachine`): its components (rename
unit, reorder buffer, queues, predictor, memory pipeline, functional
units, load-elimination tables) are plain attributes, and the front end
(:meth:`_OOORun.decode`) and the commit stage (:meth:`_OOORun.retire`)
bracket a per-instruction-class dispatch table.  The in-order-issue
intermediate machine (:mod:`repro.machine.inorder`) subclasses this model
and overrides only the issue gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.common.intervals import BusyCalendar
from repro.common.params import CommitModel, LoadElimination, OOOParams
from repro.common.resources import GapResource, PipelinedResource
from repro.common.stats import SimStats
from repro.isa.opcodes import InstrKind
from repro.isa.registers import RegClass, Register
from repro.machine.core import StagedMachine
from repro.memory.system import MemorySystem
from repro.ooo.btb import BranchPredictor
from repro.ooo.loadelim import LoadEliminationUnit, TagTable
from repro.ooo.mempipe import MemoryPipeline
from repro.ooo.queues import QueueKind, QueueSet, route_queue
from repro.ooo.rename import PhysReg, RenameUnit
from repro.ooo.rob import ReorderBuffer
from repro.trace.records import DynInstr, Trace


@dataclass
class _ExecResult:
    """Timing outcome of one instruction, returned by the class handlers."""

    #: cycle at which execution began (early-commit eligibility)
    start: int
    #: cycle at which the instruction fully completed (late-commit eligibility)
    completion: int
    #: cycle at which the instruction left its issue queue
    departure: int
    #: cycle by which decode/rename resources were actually acquired
    rename_done: int
    #: physical registers to return to their free lists at commit
    released: list[tuple[RegClass, PhysReg | None]] = field(default_factory=list)


@dataclass
class _StepContext:
    """Front-end outcome handed from :meth:`_OOORun.decode` to the handlers."""

    queue_kind: QueueKind
    queue: object
    rename_time: int


class _OOORun(StagedMachine):
    """All mutable state of a single OOOVA simulation."""

    KIND = "ooo"
    DISPATCH = {
        InstrKind.VECTOR_ALU: "_run_vector_compute",
        InstrKind.VECTOR_LOAD: "_run_memory",
        InstrKind.VECTOR_STORE: "_run_memory",
        InstrKind.SCALAR_LOAD: "_run_memory",
        InstrKind.SCALAR_STORE: "_run_memory",
        InstrKind.BRANCH: "_run_branch",
    }
    DEFAULT_HANDLER = "_run_scalar"

    def __init__(self, params: OOOParams, trace: Trace) -> None:
        super().__init__(params, trace)
        #: cycle of the latest in-order rename (the front end's position)
        self.last_rename = -1
        #: earliest fetch cycle after the latest branch misprediction
        self.fetch_resume = 0

        self.memory = MemorySystem(params.memory, params.latencies)
        self.rename = RenameUnit(
            params.num_phys_aregs,
            params.num_phys_sregs,
            params.num_phys_vregs,
            params.num_phys_maskregs,
        )
        self.rob = ReorderBuffer(params.rob_entries, params.commit_width)
        self.queues = QueueSet(params.queue_slots)
        self.predictor = BranchPredictor(params.btb_entries, params.ras_depth)
        self.mempipe = MemoryPipeline()
        self.fu1 = GapResource("FU1")
        self.fu2 = GapResource("FU2")
        #: when the vector memory unit (MEM) was busy issuing addresses
        self.mem_busy = BusyCalendar("MEM")
        self.a_unit = PipelinedResource("A-unit")
        self.s_unit = PipelinedResource("S-unit")

        self.sle = params.load_elimination in (LoadElimination.SLE, LoadElimination.SLE_VLE)
        self.vle = params.load_elimination is LoadElimination.SLE_VLE
        self.loadelim = LoadEliminationUnit() if self.sle else None

    # ------------------------------------------------------------------ utils

    def _vector_source_ready(self, phys: PhysReg) -> int:
        # functional units chain into functional units and stores; loads never chain
        return phys.ready if phys.from_load else phys.first_result

    def _tag_table_for(self, cls: RegClass) -> TagTable | None:
        if self.loadelim is None:
            return None
        if cls is RegClass.V:
            return self.loadelim.vector_tags
        if cls is RegClass.A:
            return self.loadelim.a_tags
        if cls is RegClass.S:
            return self.loadelim.s_tags
        return None

    def _invalidate_tag(self, cls: RegClass, phys: PhysReg) -> None:
        table = self._tag_table_for(cls)
        if table is not None:
            table.invalidate(phys.ident)

    def _issue_gate(self, earliest: int) -> int:
        """Constrain an instruction's earliest issue cycle (OOOVA: none).

        The in-order intermediate machine (:mod:`repro.machine.inorder`)
        overrides this single hook to force program-order, one-per-cycle
        issue on the otherwise identical pipeline.
        """
        return earliest

    # --------------------------------------------------------- pipeline stages

    def decode(self, dyn: DynInstr) -> _StepContext:
        """Front end: route to a queue, allocate ROB and queue slots in order."""
        queue_kind = route_queue(dyn)
        queue = self.queues.queues[queue_kind]
        fetch_time = max(self.last_rename + 1, self.fetch_resume)
        rename_time = self.rob.allocate(fetch_time)
        rename_time = queue.admit(rename_time)
        return _StepContext(queue_kind, queue, rename_time)

    def retire(self, dyn: DynInstr, ctx: _StepContext, result: _ExecResult) -> None:
        """Back end: queue departure, in-order commit, free-list releases."""
        ctx.queue.register_departure(result.departure)

        if self.params.commit_model is CommitModel.EARLY:
            ready_to_commit = result.start
        else:
            ready_to_commit = result.completion
        commit_time = self.rob.commit(max(ready_to_commit, result.rename_done))

        for cls, phys in result.released:
            self.rename.release(cls, phys, commit_time)

        self.last_rename = max(ctx.rename_time, result.rename_done)
        self._advance_horizon(result.completion, commit_time, result.departure)

    def finalise(self) -> SimStats:
        """Derive the final :class:`SimStats` from the accumulated state."""
        self.stats.cycles = max(self.horizon, self.rob.last_commit)
        self.stats.address_port_busy_cycles = self.memory.busy_cycles
        self.stats.record_unit_activity(self.fu2, self.fu1, self.mem_busy)
        self.stats.rename_stall_cycles = self.rename.total_allocation_stall_cycles
        self.stats.rob_stall_cycles = self.rob.allocation_stall_cycles
        self.stats.queue_stall_cycles = self.queues.total_full_stall_cycles
        if self.loadelim is not None:
            self.stats.loads_eliminated = self.loadelim.vector_loads_eliminated
        return self.stats

    # ------------------------------------------------------------ scalar / branch

    def _run_scalar(self, dyn: DynInstr, ctx: _StepContext) -> _ExecResult:
        rename_time = ctx.rename_time
        sources = [self.rename.source(src) for src in dyn.srcs]
        released: list[tuple[RegClass, PhysReg | None]] = []
        rename_done = rename_time
        dest_phys: PhysReg | None = None
        if dyn.dest is not None:
            rename_result = self.rename.rename_destination(dyn.dest, rename_time)
            rename_done = max(rename_done, rename_result.available_at)
            dest_phys = rename_result.phys
            released.append((dyn.dest.cls, rename_result.previous))
            self._invalidate_tag(dyn.dest.cls, dest_phys)

        ready = rename_done + 1
        for phys in sources:
            ready = max(ready, phys.ready)
        ready = self._issue_gate(ready)
        unit = self.a_unit if ctx.queue_kind is QueueKind.A else self.s_unit
        issue = unit.reserve(ready)
        completion = issue + self._scalar_latency(dyn.opcode)

        if dest_phys is not None:
            dest_phys.ready = completion
            dest_phys.first_result = completion
            dest_phys.from_load = False

        return _ExecResult(issue, completion, issue, rename_done, released)

    def _run_branch(self, dyn: DynInstr, ctx: _StepContext) -> _ExecResult:
        rename_time = ctx.rename_time
        sources = [self.rename.source(src) for src in dyn.srcs]
        ready = rename_time + 1
        for phys in sources:
            ready = max(ready, phys.ready)
        ready = self._issue_gate(ready)
        issue = self.a_unit.reserve(ready)
        resolve = issue + self.lat.scalar_alu

        if not self.predictor.predict_and_update(dyn):
            self.stats.branch_mispredictions += 1
            self.fetch_resume = max(
                self.fetch_resume, resolve + self.params.branch_mispredict_penalty
            )

        return _ExecResult(issue, resolve, issue, rename_time)

    # ------------------------------------------------------------------ vector

    def _run_vector_compute(self, dyn: DynInstr, ctx: _StepContext) -> _ExecResult:
        rename_time = ctx.rename_time
        sources = [self.rename.source(src) for src in dyn.srcs]
        released: list[tuple[RegClass, PhysReg | None]] = []
        rename_done = rename_time

        # Under vector load elimination all vector-register instructions pass
        # in order through the memory pipeline so that vector renaming happens
        # at a single pipeline point (Section 6.2).
        if self.vle:
            earliest = self.mempipe.traverse(rename_time + 1)
        else:
            earliest = rename_time + 1

        dest_phys: PhysReg | None = None
        if dyn.dest is not None:
            renamed_late = self.vle and dyn.dest.cls in (RegClass.V, RegClass.VM)
            rename_at = earliest if renamed_late else rename_time
            rename_result = self.rename.rename_destination(
                dyn.dest, rename_at, at_decode=not renamed_late)
            if not renamed_late:
                # A free-list stall at decode holds up the whole front end;
                # under the single-point rename of Section 6.2 the stall is
                # taken up by the memory pipeline instead.
                rename_done = max(rename_done, rename_result.available_at)
            earliest = max(earliest, rename_result.available_at)
            dest_phys = rename_result.phys
            released.append((dyn.dest.cls, rename_result.previous))
            self._invalidate_tag(dyn.dest.cls, dest_phys)

        for src, phys in zip(dyn.srcs, sources, strict=True):
            if src.cls in (RegClass.V, RegClass.VM):
                earliest = max(earliest, self._vector_source_ready(phys))
            else:
                earliest = max(earliest, phys.ready)
        earliest = self._issue_gate(earliest)

        vl = max(dyn.vl, 1)
        duration = vl + self.lat.vector_startup
        if dyn.opcode.fu2_only:
            unit = self.fu2
        else:
            unit = self.fu1 if self.fu1.next_free(earliest, duration) <= \
                self.fu2.next_free(earliest, duration) else self.fu2
        start = unit.reserve(earliest, duration)

        effective_latency = self._vector_effective_latency(dyn.opcode)
        first_result = start + effective_latency
        completion = first_result + vl

        if dest_phys is not None:
            dest_phys.from_load = False
            if dyn.dest.cls in (RegClass.V, RegClass.VM):
                dest_phys.first_result = first_result
                dest_phys.ready = completion
            else:
                # reductions deliver a scalar at the end of the operation
                dest_phys.first_result = completion
                dest_phys.ready = completion

        return _ExecResult(start, completion, start, rename_done, released)

    # ------------------------------------------------------------------ memory

    def _run_memory(self, dyn: DynInstr, ctx: _StepContext) -> _ExecResult:
        rename_time = ctx.rename_time
        sources = {src: self.rename.source(src) for src in dyn.srcs}

        if dyn.is_store:
            value_src = dyn.srcs[0]
            address_srcs = dyn.srcs[1:]
        else:
            value_src = None
            address_srcs = dyn.srcs

        address_ready = rename_time + 1
        index_ready = rename_time + 1
        for src in address_srcs:
            phys = sources[src]
            if src.cls in (RegClass.V, RegClass.VM):
                index_ready = max(index_ready, phys.ready)
            else:
                address_ready = max(address_ready, phys.ready)

        pipe_exit = self.mempipe.traverse(max(rename_time + 1, address_ready))
        dependence_ready = self.mempipe.dependence_ready(dyn, pipe_exit)

        if dyn.is_load:
            return self._run_load(dyn, rename_time, sources, pipe_exit, dependence_ready,
                                  index_ready)
        return self._run_store(dyn, rename_time, sources, value_src, dependence_ready, index_ready)

    def _run_load(
        self,
        dyn: DynInstr,
        rename_time: int,
        sources: dict[Register, PhysReg],
        pipe_exit: int,
        dependence_ready: int,
        index_ready: int,
    ) -> _ExecResult:
        released: list[tuple[RegClass, PhysReg | None]] = []
        rename_done = rename_time
        dest_cls = dyn.dest.cls
        vl = max(dyn.vl, 1) if dyn.is_vector else 1
        table = self._tag_table_for(dest_cls)

        eliminate = False
        matched_phys_id: int | None = None
        if table is not None and ((dyn.is_vector and self.vle) or (not dyn.is_vector and self.sle)):
            matched_phys_id = self.loadelim.try_eliminate(dyn, table)
            eliminate = matched_phys_id is not None

        if eliminate and dyn.is_vector:
            # The destination logical register is renamed to the matching
            # physical register; the load completes in the time of the rename
            # and never consults the memory disambiguation logic — the tag
            # was created when the matching access passed the Range stage, so
            # the data is bypassed straight from the register file.
            matched = self.rename.file(RegClass.V).registers[matched_phys_id]
            previous = self.rename.file(RegClass.V).remap(dyn.dest, matched)
            released.append((RegClass.V, previous))
            completion = max(pipe_exit + 1, matched.ready)
            self.loadelim.vector_loads_eliminated += 1
            self.stats.traffic.eliminate_load(True, vl, dyn.is_spill)
            departure = pipe_exit + 1
            return _ExecResult(pipe_exit, completion, departure, rename_done, released)

        # Scalar loads (and vector loads that were not eliminated) allocate a
        # destination physical register through the normal rename path.
        renamed_late = self.vle and dyn.is_vector
        rename_at = dependence_ready if renamed_late else rename_time
        rename_result = self.rename.rename_destination(
            dyn.dest, rename_at, at_decode=not renamed_late)
        if not renamed_late:
            rename_done = max(rename_done, rename_result.available_at)
        dest_phys = rename_result.phys
        released.append((dest_cls, rename_result.previous))

        if eliminate and not dyn.is_vector:
            # Scalar load elimination: the value is copied register to
            # register; the rename table is not affected (Section 6.1).  The
            # copy bypasses memory entirely, so it waits only for the source
            # register's value, not for the matching store to reach memory.
            matched_cls = RegClass.A if table is self.loadelim.a_tags else RegClass.S
            matched = self.rename.file(matched_cls).registers[matched_phys_id]
            completion = max(pipe_exit + 1, matched.ready)
            dest_phys.ready = completion
            dest_phys.first_result = completion
            dest_phys.from_load = False
            if table is not None:
                table.set_tag(dest_phys.ident, table.get(matched_phys_id))
            self.stats.traffic.eliminate_load(False, 1, dyn.is_spill)
            return _ExecResult(pipe_exit, completion, pipe_exit + 1,
                               rename_done, released)

        earliest = self._issue_gate(
            max(dependence_ready, index_ready, rename_result.available_at))
        if dyn.is_vector:
            timing = self.memory.vector_load(earliest, vl)
            dest_phys.first_result = timing.start + self.params.memory.latency
            dest_phys.ready = timing.data_ready
            dest_phys.from_load = True
            self.mem_busy.add(timing.start, timing.address_done)
        else:
            timing = self.memory.scalar_load(earliest)
            dest_phys.first_result = timing.data_ready
            dest_phys.ready = timing.data_ready
            dest_phys.from_load = True

        self.mempipe.register_access(dyn, timing.address_done)
        if table is not None:
            self.loadelim.load_executed(dyn, dest_phys.ident, table)

        return _ExecResult(timing.start, timing.data_ready, timing.start, rename_done, released)

    def _run_store(
        self,
        dyn: DynInstr,
        rename_time: int,
        sources: dict[Register, PhysReg],
        value_src: Register,
        dependence_ready: int,
        index_ready: int,
    ) -> _ExecResult:
        value_phys = sources[value_src]
        vl = max(dyn.vl, 1) if dyn.is_vector else 1

        if value_src.cls in (RegClass.V, RegClass.VM):
            value_ready = self._vector_source_ready(value_phys)
        else:
            value_ready = value_phys.ready

        earliest = max(dependence_ready, index_ready, value_ready)
        if self.params.commit_model is CommitModel.LATE:
            # Stores update memory only from the head of the reorder buffer,
            # i.e. once every older instruction has committed (Section 5).
            earliest = max(earliest, self.rob.last_commit)
        earliest = self._issue_gate(earliest)

        if dyn.is_vector:
            timing = self.memory.vector_store(earliest, vl)
            self.mem_busy.add(timing.start, timing.address_done)
        else:
            timing = self.memory.scalar_store(earliest)

        self.mempipe.register_access(dyn, timing.address_done)
        table = self._tag_table_for(value_src.cls)
        if self.loadelim is not None and table is not None:
            self.loadelim.store_executed(dyn, value_phys.ident, table)

        return _ExecResult(timing.start, timing.address_done, timing.start, rename_time, [])


def simulate_ooo(trace: Trace, params: OOOParams | None = None) -> SimStats:
    """Run ``trace`` through the OOOVA machine's scalar spec."""
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    return _OOORun(params or OOOParams(), trace).execute()

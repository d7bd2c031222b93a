"""Cycle-level simulator of the in-order reference architecture (Convex C3400).

The model follows Section 2.1 of the paper:

* a scalar unit issuing at most one instruction per cycle, in program order;
* two vector computation units — FU1 (everything except multiply, divide and
  square root) and FU2 (general purpose) — plus one memory unit (MEM);
* eight vector registers of 128 × 64-bit elements, grouped two per bank with
  two read ports and one write port per bank;
* chaining from functional units to functional units and to the store unit,
  but **no** chaining of memory loads into functional units;
* a single memory address port shared by every kind of access.

Instruction issue is strictly in order: when the instruction at the head of
the stream cannot be dispatched (its unit is busy, an operand is not ready
under the chaining rules, a register-bank port is unavailable, or a register
hazard exists), issue stalls and everything behind it waits.  That stall
behaviour — and the memory-port idle time it creates — is what Figures 3 and
4 of the paper quantify and what the OOOVA is designed to remove.

Like the OOOVA, the machine is declared on the staged kernel
(:class:`repro.machine.core.StagedMachine`): the timings of the 32
architected registers (all created with the run), the three vector units
with their busy calendars, the memory system and the banked register file
are plain attributes of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.common.intervals import BusyCalendar
from repro.common.params import ReferenceParams
from repro.common.stats import SimStats
from repro.isa.opcodes import InstrKind
from repro.isa.registers import RegClass, Register, all_registers
from repro.machine.core import StagedMachine
from repro.memory.system import MemorySystem
from repro.refsim.regfile import BankedVectorRegisterFile
from repro.trace.records import DynInstr, Trace

#: iterations of the port-conflict fixed point before giving up and taking
#: the conservative (latest) estimate
_PORT_NEGOTIATION_ROUNDS = 8


@dataclass
class _RegState:
    """Timing state of one architected register."""

    ready: int = 0
    first_result: int = 0
    from_load: bool = False
    read_until: int = 0


@dataclass
class _UnitState:
    """A vector unit of the in-order machine (FU1, FU2 or MEM)."""

    name: str
    free_at: int = 0
    #: when the unit was busy (its last row ends at ``free_at``); reduced
    #: to the result's aggregates by finalise
    busy: BusyCalendar = field(default_factory=BusyCalendar)


class _ReferenceRun(StagedMachine):
    """All mutable state of a single reference-machine simulation."""

    KIND = "ref"
    DISPATCH = {
        InstrKind.VECTOR_ALU: "_run_vector_compute",
        InstrKind.VECTOR_LOAD: "_run_vector_memory",
        InstrKind.VECTOR_STORE: "_run_vector_memory",
        InstrKind.SCALAR_LOAD: "_run_scalar_memory",
        InstrKind.SCALAR_STORE: "_run_scalar_memory",
        InstrKind.BRANCH: "_run_branch",
    }
    DEFAULT_HANDLER = "_run_scalar"

    def __init__(self, params: ReferenceParams, trace: Trace) -> None:
        super().__init__(params, trace)
        #: cycle at which the next instruction may issue (in program order)
        self.issue_ready = 0
        #: timing state of every architected register, A, S, V then VM
        self.regs: dict[Register, _RegState] = {
            register: _RegState() for cls in RegClass for register in all_registers(cls)
        }
        self.fu1 = _UnitState("FU1")
        self.fu2 = _UnitState("FU2")
        self.mem_unit = _UnitState("MEM")
        self.memory = MemorySystem(params.memory, params.latencies)
        self.regfile = BankedVectorRegisterFile(
            params.vregs_per_bank, params.bank_read_ports, params.bank_write_ports)

    # -- helpers ------------------------------------------------------------

    def _source_ready(self, register: Register) -> int:
        """Earliest cycle a consumer may start reading ``register``."""
        state = self.regs[register]
        if register.cls in (RegClass.A, RegClass.S) or state.from_load:
            # Loads do not chain into functional units (or into stores).
            return state.ready
        return state.first_result

    def _dest_constraint(self, register: Register) -> int:
        """WAW / WAR constraint: the old value's writer and readers must finish."""
        state = self.regs[register]
        return max(state.ready, state.read_until)

    def finalise(self) -> SimStats:
        """Derive the final :class:`SimStats` from the accumulated state."""
        self.stats.cycles = self.horizon
        self.stats.address_port_busy_cycles = self.memory.busy_cycles
        self.stats.record_unit_activity(
            self.fu2.busy, self.fu1.busy, self.mem_unit.busy)
        return self.stats

    # -- instruction classes ----------------------------------------------------

    def _run_scalar(self, dyn: DynInstr, ctx: object) -> None:
        start = self.issue_ready
        for src in dyn.srcs:
            start = max(start, self.regs[src].ready)
        latency = self.lat.vector_op_latency(dyn.opcode.info.latency_class) \
            if dyn.opcode.info.latency_class in ("scalar_alu", "scalar_mul", "scalar_div") \
            else self.lat.scalar_alu
        done = start + latency
        if dyn.dest is not None:
            dest = self.regs[dyn.dest]
            dest.ready = done
            dest.first_result = done
            dest.from_load = False
        self.issue_ready = start + 1
        self._advance_horizon(done, start + 1)

    def _run_branch(self, dyn: DynInstr, ctx: object) -> None:
        start = self.issue_ready
        for src in dyn.srcs:
            start = max(start, self.regs[src].ready)
        penalty = self.params.taken_branch_penalty if dyn.taken else 0
        self.issue_ready = start + 1 + penalty
        self._advance_horizon(self.issue_ready)

    def _run_scalar_memory(self, dyn: DynInstr, ctx: object) -> None:
        start = self.issue_ready
        for src in dyn.srcs:
            start = max(start, self.regs[src].ready)
        if dyn.is_load:
            timing = self.memory.scalar_load(start)
            if dyn.dest is not None:
                dest = self.regs[dyn.dest]
                dest.ready = timing.data_ready
                dest.first_result = timing.data_ready
                dest.from_load = True
        else:
            timing = self.memory.scalar_store(start)
        self.issue_ready = timing.start + 1
        self._advance_horizon(timing.data_ready, timing.start + 1)

    def _select_compute_unit(self, dyn: DynInstr) -> _UnitState:
        if dyn.opcode.fu2_only:
            return self.fu2
        if self.fu1.free_at <= self.fu2.free_at:
            return self.fu1
        return self.fu2

    def _run_vector_compute(self, dyn: DynInstr, ctx: object) -> None:
        vl = max(dyn.vl, 1)
        unit = self._select_compute_unit(dyn)
        effective_latency = self._vector_effective_latency(dyn.opcode)

        start = max(self.issue_ready, unit.free_at)
        for src in dyn.srcs:
            start = max(start, self._source_ready(src))
        if dyn.dest is not None:
            start = max(start, self._dest_constraint(dyn.dest))

        start = self._negotiate_ports(dyn, start, vl, effective_latency)
        self._reserve_ports(dyn, start, vl, effective_latency)

        busy_until = start + vl + self.lat.vector_startup
        unit.free_at = busy_until
        unit.busy.add(start, busy_until)

        first_result = start + effective_latency
        completion = first_result + vl
        for src in dyn.srcs:
            if src.cls in (RegClass.V, RegClass.VM):
                state = self.regs[src]
                state.read_until = max(state.read_until, start + vl)
        if dyn.dest is not None:
            dest = self.regs[dyn.dest]
            dest.from_load = False
            if dyn.dest.cls in (RegClass.V, RegClass.VM):
                dest.first_result = first_result
                dest.ready = completion
            else:
                # reductions (vsum) deliver their scalar result at the end
                dest.first_result = completion
                dest.ready = completion

        self.issue_ready = start + 1
        self._advance_horizon(completion, busy_until, start + 1)

    def _negotiate_ports(self, dyn: DynInstr, start: int, vl: int, latency: int) -> int:
        """Find the earliest start at which all needed register-file ports fit."""
        candidate = start
        for _ in range(_PORT_NEGOTIATION_ROUNDS):
            adjusted = candidate
            for src in dyn.srcs:
                if src.cls is RegClass.V:
                    adjusted = max(adjusted, self.regfile.earliest_read(src, candidate, vl))
            if dyn.dest is not None and dyn.dest.cls is RegClass.V:
                write_start = adjusted + latency
                available = self.regfile.earliest_write(dyn.dest, write_start, vl)
                adjusted = max(adjusted, available - latency)
            if adjusted == candidate:
                return candidate
            candidate = adjusted
        return candidate

    def _reserve_ports(self, dyn: DynInstr, start: int, vl: int, latency: int) -> None:
        for src in dyn.srcs:
            if src.cls is RegClass.V:
                self.regfile.reserve_read(src, start, vl)
        if dyn.dest is not None and dyn.dest.cls is RegClass.V:
            self.regfile.reserve_write(dyn.dest, start + latency, vl)

    def _run_vector_memory(self, dyn: DynInstr, ctx: object) -> None:
        vl = max(dyn.vl, 1)

        start = max(self.issue_ready, self.mem_unit.free_at)
        if dyn.is_load:
            for src in dyn.srcs:
                # base address (A) and, for gathers, the index vector, which
                # must be completely available before addresses can be formed
                start = max(start, self.regs[src].ready)
            if dyn.dest is not None:
                start = max(start, self._dest_constraint(dyn.dest))
            start = max(start, self.regfile.earliest_write(
                dyn.dest, start + self.params.memory.latency, vl) - self.params.memory.latency)

            timing = self.memory.vector_load(start, vl)
            self.regfile.reserve_write(dyn.dest, timing.start + self.params.memory.latency, vl)
            dest = self.regs[dyn.dest]
            dest.from_load = True
            dest.first_result = timing.start + self.params.memory.latency
            dest.ready = timing.data_ready
        else:
            value_reg = dyn.srcs[0]
            start = max(start, self._source_ready(value_reg))
            for src in dyn.srcs[1:]:
                start = max(start, self.regs[src].ready)
            if value_reg.cls is RegClass.V:
                start = max(start, self.regfile.earliest_read(value_reg, start, vl))

            timing = self.memory.vector_store(start, vl)
            if value_reg.cls is RegClass.V:
                self.regfile.reserve_read(value_reg, timing.start, vl)
                state = self.regs[value_reg]
                state.read_until = max(state.read_until, timing.address_done)

        self.mem_unit.free_at = timing.address_done
        self.mem_unit.busy.add(timing.start, timing.address_done)
        self.issue_ready = timing.start + 1
        self._advance_horizon(timing.data_ready, timing.address_done, timing.start + 1)


def simulate_reference(trace: Trace, params: ReferenceParams | None = None) -> SimStats:
    """Run ``trace`` through the reference machine's scalar spec."""
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    return _ReferenceRun(params or ReferenceParams(), trace).execute()

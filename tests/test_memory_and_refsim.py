"""Unit tests for the memory system and the in-order reference simulator."""

import pytest

from repro.common.params import FunctionalUnitLatencies, MemoryParams, ReferenceParams
from repro.common.errors import SimulationError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import RegClass, all_registers, areg, sreg, vreg
from repro.machine.batched import run_slice_batched
from repro.memory.system import MemorySystem
from repro.refsim.machine import _ReferenceRun, _RegState, simulate_reference
from repro.refsim.regfile import BankedVectorRegisterFile
from repro.trace.generator import generate_trace
from repro.trace.records import Trace


def _trace_of(instructions, name="t"):
    program = Program(name)
    block = program.add_block("entry")
    for instr in instructions:
        block.append(instr)
    return generate_trace(program)


def _vector_loop_trace(n_loads=2, vl=64, latency_ops=()):
    instrs = [Instruction(Opcode.LI, dest=areg(i), imm=0x1000 * (i + 1)) for i in range(4)]
    instrs.append(Instruction(Opcode.SETVL, imm=vl))
    for i in range(n_loads):
        instrs.append(Instruction(Opcode.VLOAD, dest=vreg(i), srcs=(areg(i),)))
    instrs.append(Instruction(Opcode.VADD, dest=vreg(6), srcs=(vreg(0), vreg(1))))
    for op in latency_ops:
        instrs.append(op)
    instrs.append(Instruction(Opcode.VSTORE, srcs=(vreg(6), areg(3))))
    return _trace_of(instrs)


class TestMemorySystem:
    def test_vector_load_timing(self):
        mem = MemorySystem(MemoryParams(latency=50))
        timing = mem.vector_load(10, 64)
        assert timing.start == 10
        assert timing.address_done == 74
        assert timing.data_ready == 10 + 50 + 64

    def test_vector_store_has_no_observed_latency(self):
        mem = MemorySystem(MemoryParams(latency=50))
        timing = mem.vector_store(5, 32)
        assert timing.data_ready == timing.address_done == 37

    def test_address_bus_serialises_requests(self):
        mem = MemorySystem(MemoryParams(latency=10))
        first = mem.vector_load(0, 64)
        second = mem.vector_load(0, 64)
        assert second.start >= first.address_done

    def test_scalar_accesses_share_the_bus(self):
        mem = MemorySystem(MemoryParams(latency=10), FunctionalUnitLatencies())
        mem.vector_load(0, 16)
        timing = mem.scalar_load(0)
        assert timing.start >= 16
        assert mem.busy_cycles == 17

    def test_request_accounting(self):
        mem = MemorySystem(MemoryParams())
        mem.vector_load(0, 8)
        mem.vector_store(0, 4)
        mem.scalar_store(0)
        assert mem.busy_cycles == 13


class TestBankedRegisterFile:
    def test_bank_mapping(self):
        rf = BankedVectorRegisterFile(8, 2, 2, 1)
        assert rf.bank_of(vreg(0)) == rf.bank_of(vreg(1)) == 0
        assert rf.bank_of(vreg(6)) == 3

    def test_non_vector_register_rejected(self):
        rf = BankedVectorRegisterFile(8, 2, 2, 1)
        with pytest.raises(ValueError):
            rf.bank_of(areg(0))

    def test_write_port_conflict_delays_second_writer(self):
        rf = BankedVectorRegisterFile(8, 2, 2, 1)
        assert rf.reserve_write(vreg(0), 0, 100) == 0
        # v1 shares v0's bank and there is a single write port per bank.
        assert rf.reserve_write(vreg(1), 0, 100) == 100
        # a register in another bank is unaffected
        assert rf.reserve_write(vreg(2), 0, 100) == 0

    def test_two_read_ports_per_bank(self):
        rf = BankedVectorRegisterFile(8, 2, 2, 1)
        assert rf.reserve_read(vreg(0), 0, 50) == 0
        assert rf.reserve_read(vreg(1), 0, 50) == 0
        assert rf.reserve_read(vreg(0), 0, 50) == 50


class TestReferenceSimulator:
    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            simulate_reference(Trace("empty"))

    def test_cycle_count_positive_and_deterministic(self):
        trace = _vector_loop_trace()
        first = simulate_reference(trace)
        second = simulate_reference(trace)
        assert first.cycles == second.cycles > 0

    def test_memory_latency_increases_execution_time(self):
        trace = _vector_loop_trace()
        fast = simulate_reference(trace, ReferenceParams().with_memory_latency(1))
        slow = simulate_reference(trace, ReferenceParams().with_memory_latency(100))
        assert slow.cycles > fast.cycles

    def test_no_load_chaining_exposes_latency(self):
        # The consumer of a load must wait for the load to complete entirely.
        trace = _vector_loop_trace(vl=32)
        params = ReferenceParams().with_memory_latency(80)
        stats = simulate_reference(trace, params)
        # lower bound: load address issue + latency + vl for the dependent add
        assert stats.cycles > 80 + 32

    def test_fu2_only_operations_serialise_on_fu2(self):
        instrs = [
            Instruction(Opcode.LI, dest=areg(0), imm=0x1000),
            Instruction(Opcode.SETVL, imm=64),
            Instruction(Opcode.VMUL, dest=vreg(2), srcs=(vreg(0), vreg(1))),
            Instruction(Opcode.VDIV, dest=vreg(5), srcs=(vreg(3), vreg(4))),
        ]
        stats = simulate_reference(_trace_of(instrs))
        assert stats.unit_busy_cycles("FU2") > stats.unit_busy_cycles("FU1")

    def test_independent_ops_use_both_units(self):
        instrs = [
            Instruction(Opcode.SETVL, imm=64),
            Instruction(Opcode.VADD, dest=vreg(2), srcs=(vreg(0), vreg(1))),
            Instruction(Opcode.VSUB, dest=vreg(5), srcs=(vreg(3), vreg(4))),
        ]
        stats = simulate_reference(_trace_of(instrs))
        assert stats.unit_busy_cycles("FU1") > 0
        assert stats.unit_busy_cycles("FU2") > 0

    def test_traffic_accounting(self):
        trace = _vector_loop_trace(n_loads=2, vl=16)
        stats = simulate_reference(trace)
        assert stats.traffic.vector_load_ops == 32
        assert stats.traffic.vector_store_ops == 16
        assert stats.address_port_busy_cycles == 48

    def test_state_breakdown_covers_all_cycles(self):
        stats = simulate_reference(_vector_loop_trace())
        assert sum(stats.state_breakdown().values()) == stats.cycles

    def test_instruction_counters(self):
        trace = _vector_loop_trace(n_loads=1, vl=8)
        stats = simulate_reference(trace)
        assert stats.vector_instructions == 3  # load, add, store
        assert stats.scalar_instructions == len(trace) - 3

    def test_every_register_has_timing_state_from_construction(self):
        trace = _vector_loop_trace()
        architected = {reg for cls in RegClass for reg in all_registers(cls)}
        # the spec updates those states in place and adds none
        run = _ReferenceRun(ReferenceParams(), trace)
        assert set(run.regs) == architected
        assert all(state == _RegState() for state in run.regs.values())
        states = dict(run.regs)
        run.run_slice(trace.instructions)
        assert run.regs.keys() == states.keys()
        assert all(run.regs[reg] is state for reg, state in states.items())
        assert run.regs[vreg(6)].ready > 0

    def test_functional_units_chain_into_functional_units_and_stores(self):
        # a dependent instruction starts at its producer's first result, not
        # at its completion
        trace = _trace_of([
            Instruction(Opcode.LI, dest=areg(0), imm=0x1000),
            Instruction(Opcode.SETVL, imm=128),
            Instruction(Opcode.VADD, dest=vreg(2), srcs=(vreg(0), vreg(1))),
            Instruction(Opcode.VMUL, dest=vreg(4), srcs=(vreg(2), vreg(2))),
            Instruction(Opcode.VSTORE, srcs=(vreg(4), areg(0))),
        ])
        run = _ReferenceRun(ReferenceParams(), trace)
        run.run_slice(trace.instructions)
        add, mul = run.regs[vreg(2)], run.regs[vreg(4)]
        mul_start = mul.first_result - run._vector_effective_latency(Opcode.VMUL)
        assert mul_start == add.first_result < add.ready
        store_start = run.mem_unit.free_at - 128
        assert store_start == mul.first_result < mul.ready
        # the stepper keeps its own register timing and reaches the same stats
        stepped = _ReferenceRun(ReferenceParams(), trace)
        run_slice_batched(stepped, trace.instructions)
        assert stepped.finalise().to_dict() == run.finalise().to_dict()

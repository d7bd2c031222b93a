"""Unit tests for the trace generator (the Dixie substitute) and trace stats."""

import pytest

from repro.common.errors import TraceError
from repro.compiler import ir
from repro.compiler.pipeline import compile_kernel
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import areg, sreg, vreg
from repro.trace.generator import TraceGenerator, generate_trace
from repro.trace.records import DynInstr, Trace
from repro.trace.stats import compute_trace_statistics


def _program(instructions, name="p"):
    program = Program(name)
    block = program.add_block("entry")
    for instr in instructions:
        block.append(instr)
    return program


class TestScalarSemantics:
    def test_arithmetic_and_store_load_roundtrip(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=0x1000),
            Instruction(Opcode.LI, dest=sreg(0), imm=21),
            Instruction(Opcode.ADD, dest=sreg(0), srcs=(sreg(0),), imm=21),
            Instruction(Opcode.STORE, srcs=(sreg(0), areg(0)), imm=8),
            Instruction(Opcode.LOAD, dest=sreg(1), srcs=(areg(0),), imm=8),
            Instruction(Opcode.STORE, srcs=(sreg(1), areg(0)), imm=16),
        ])
        trace = generate_trace(program)
        stores = [d for d in trace if d.opcode is Opcode.STORE]
        assert stores[0].address == 0x1008
        assert stores[1].address == 0x1010
        loads = [d for d in trace if d.opcode is Opcode.LOAD]
        assert loads[0].region_start == 0x1008 and loads[0].region_end == 0x1010

    def test_conditional_branch_loop(self):
        program = Program("loop")
        entry = program.add_block("entry")
        entry.append(Instruction(Opcode.LI, dest=areg(0), imm=4))
        body = program.add_block("body")
        body.append(Instruction(Opcode.SUB, dest=areg(0), srcs=(areg(0),), imm=1))
        body.append(Instruction(Opcode.BR, srcs=(areg(0),), cond="gt", imm=0, target="body"))
        trace = generate_trace(program)
        branches = [d for d in trace if d.is_branch]
        assert len(branches) == 4
        assert [b.taken for b in branches] == [True, True, True, False]

    def test_call_and_return(self):
        program = Program("call")
        main = program.add_block("main")
        main.append(Instruction(Opcode.CALL, target="sub"))
        main.append(Instruction(Opcode.LI, dest=sreg(0), imm=1))
        main.append(Instruction(Opcode.RET))
        sub = program.add_block("sub")
        sub.append(Instruction(Opcode.LI, dest=sreg(1), imm=2))
        sub.append(Instruction(Opcode.RET))
        trace = generate_trace(program)
        opcodes = [d.opcode for d in trace]
        # call -> subroutine body -> return to caller -> rest of main -> end
        assert opcodes == [Opcode.CALL, Opcode.LI, Opcode.RET, Opcode.LI, Opcode.RET]
        assert trace[0].is_call
        assert trace[2].is_return and trace[-1].is_return

    def test_compare_instruction(self):
        program = _program([
            Instruction(Opcode.LI, dest=sreg(0), imm=5),
            Instruction(Opcode.CMP, dest=sreg(1), srcs=(sreg(0),), imm=3, cond="gt"),
            Instruction(Opcode.BR, srcs=(sreg(1),), target="entry", cond="eq", imm=0),
        ])
        trace = generate_trace(program)
        assert not trace[-1].taken  # 5 > 3, so s1 == 1, eq-0 comparison fails

    def test_runaway_loop_detected(self):
        program = Program("forever")
        body = program.add_block("body")
        body.append(Instruction(Opcode.LI, dest=areg(0), imm=1))
        body.append(Instruction(Opcode.JMP, target="body"))
        with pytest.raises(TraceError):
            TraceGenerator(max_instructions=500).run(program)


class TestVectorSemantics:
    def test_setvl_clamps_to_hardware_maximum(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=1000),
            Instruction(Opcode.SETVL, srcs=(areg(0),)),
            Instruction(Opcode.VADD, dest=vreg(0), srcs=(vreg(1), vreg(2))),
        ])
        trace = generate_trace(program)
        assert trace[-1].vl == 128

    def test_setvl_immediate_clamp(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=1000),
            Instruction(Opcode.SETVL, srcs=(areg(0),), imm=48),
            Instruction(Opcode.VADD, dest=vreg(0), srcs=(vreg(1), vreg(2))),
        ])
        assert generate_trace(program)[-1].vl == 48

    def test_setvl_uses_remaining_count_when_smaller(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=10),
            Instruction(Opcode.SETVL, srcs=(areg(0),), imm=64),
            Instruction(Opcode.VADD, dest=vreg(0), srcs=(vreg(1), vreg(2))),
        ])
        assert generate_trace(program)[-1].vl == 10

    def test_unit_stride_load_region(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=0x2000),
            Instruction(Opcode.SETVL, imm=16),
            Instruction(Opcode.VLOAD, dest=vreg(0), srcs=(areg(0),)),
        ])
        record = generate_trace(program)[-1]
        assert record.address == 0x2000
        assert record.region_start == 0x2000
        assert record.region_end == 0x2000 + 16 * 8

    def test_strided_store_region_uses_vs(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=0x3000),
            Instruction(Opcode.SETVL, imm=8),
            Instruction(Opcode.SETVS, imm=32),
            Instruction(Opcode.VSTORES, srcs=(vreg(1), areg(0))),
        ])
        record = generate_trace(program)[-1]
        assert record.stride == 32
        assert record.region_end == 0x3000 + 7 * 32 + 8

    def test_gather_uses_conservative_region(self):
        program = _program([
            Instruction(Opcode.LI, dest=areg(0), imm=0x4000),
            Instruction(Opcode.SETVL, imm=8),
            Instruction(Opcode.VGATHER, dest=vreg(0), srcs=(areg(0), vreg(1)),
                        region_bytes=4096),
        ])
        record = generate_trace(program)[-1]
        assert record.region_start == 0x4000
        assert record.region_end == 0x4000 + 4096

    def test_setvl_without_operands_rejected(self):
        program = _program([Instruction(Opcode.SETVL)])
        with pytest.raises(TraceError):
            generate_trace(program)


class TestTraceStatistics:
    def _compiled_trace(self):
        a = ir.Array("a", 300)
        b = ir.Array("b", 300)
        kernel = ir.Kernel("stats")
        kernel.add(ir.VectorLoop("loop", trip=300,
                                 statements=(ir.VectorAssign(b.ref(), a.ref() * 2.0),)))
        return generate_trace(compile_kernel(kernel).program)

    def test_vector_operation_counting(self):
        stats = compute_trace_statistics(self._compiled_trace())
        assert stats.vector_load_ops == 300
        assert stats.vector_store_ops == 300
        assert stats.vector_operations == 300 * 3  # load, vsmul, store per element
        assert stats.average_vector_length == pytest.approx(100.0)

    def test_vectorization_percent_bounds(self):
        stats = compute_trace_statistics(self._compiled_trace())
        assert 0.0 < stats.vectorization_percent < 100.0

    def test_empty_trace(self):
        stats = compute_trace_statistics(Trace("empty"))
        assert stats.total_instructions == 0
        assert stats.vectorization_percent == 0.0
        assert stats.spill_traffic_fraction == 0.0

    def test_spill_fraction_counts_marked_operations(self):
        trace = Trace("spills")
        trace.append(DynInstr(seq=0, opcode=Opcode.VLOAD, pc=0, vl=10, is_spill=True,
                              region_start=0, region_end=80, address=0))
        trace.append(DynInstr(seq=1, opcode=Opcode.VLOAD, pc=1, vl=10,
                              region_start=0, region_end=80, address=0))
        stats = compute_trace_statistics(trace)
        assert stats.vector_load_spill_ops == 10
        assert stats.spill_traffic_fraction == pytest.approx(0.5)

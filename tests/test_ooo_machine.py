"""Behavioural tests of the OOOVA machine model against the paper's claims."""

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.common.params import CommitModel, LoadElimination, OOOParams, ReferenceParams
from repro.compiler import ir
from repro.compiler.pipeline import compile_kernel
from repro.isa.opcodes import Opcode
from repro.isa.registers import vreg
from repro.ooo.machine import simulate_ooo
from repro.refsim.machine import simulate_reference
from repro.trace.generator import generate_trace
from repro.trace.records import DynInstr, Trace


def _trace(kernel: ir.Kernel):
    return generate_trace(compile_kernel(kernel).program)


@pytest.fixture(scope="module")
def streaming_trace():
    """A bandwidth-bound kernel with independent statements."""
    n = 1024
    a, b, c, d = (ir.Array(name, n) for name in "abcd")
    kernel = ir.Kernel("streaming")
    kernel.add(ir.Loop("outer", 3, (
        ir.VectorLoop("axpy", trip=n, statements=(
            ir.VectorAssign(c.ref(), a.ref() * 2.0 + b.ref()),
            ir.VectorAssign(d.ref(), a.ref() - b.ref() * 0.5),
        )),
    )))
    return _trace(kernel)


@pytest.fixture(scope="module")
def recurrence_trace():
    """A kernel with a tight store→load recurrence (trfd-like)."""
    x = ir.Array("x", 32)
    y = ir.Array("y", 32)
    kernel = ir.Kernel("recurrence")
    kernel.add(ir.Loop("outer", 20, (
        ir.VectorLoop("body", trip=32, max_vl=32, statements=(
            ir.VectorAssign(x.ref(), x.ref() * 0.5 + y.ref()),
        )),
    )))
    return _trace(kernel)


class TestBasics:
    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            simulate_ooo(Trace("empty"))

    def test_deterministic(self, streaming_trace):
        params = OOOParams(num_phys_vregs=16)
        assert simulate_ooo(streaming_trace, params).cycles == \
            simulate_ooo(streaming_trace, params).cycles

    def test_counts_match_reference_simulator(self, streaming_trace):
        ooo = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16))
        ref = simulate_reference(streaming_trace, ReferenceParams())
        assert ooo.vector_instructions == ref.vector_instructions
        assert ooo.vector_operations == ref.vector_operations
        assert ooo.traffic.total_ops == ref.traffic.total_ops

    def test_state_breakdown_partitions_time(self, streaming_trace):
        stats = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16))
        assert sum(stats.state_breakdown().values()) == stats.cycles


class TestPaperClaims:
    def test_out_of_order_beats_in_order(self, streaming_trace):
        ref = simulate_reference(streaming_trace, ReferenceParams())
        ooo = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16))
        assert ooo.cycles < ref.cycles

    def test_more_physical_registers_never_hurt(self, streaming_trace):
        cycles = [
            simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=regs)).cycles
            for regs in (9, 16, 32, 64)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_ideal_bound_respected(self, streaming_trace):
        ref = simulate_reference(streaming_trace, ReferenceParams())
        ooo = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=64))
        assert ooo.cycles >= ref.ideal_cycles()

    def test_latency_tolerance(self, streaming_trace):
        ref_1 = simulate_reference(streaming_trace, ReferenceParams().with_memory_latency(1))
        ref_100 = simulate_reference(streaming_trace, ReferenceParams().with_memory_latency(100))
        ooo_1 = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16).with_memory_latency(1))
        ooo_100 = simulate_ooo(streaming_trace,
                               OOOParams(num_phys_vregs=16).with_memory_latency(100))
        assert (ooo_100.cycles / ooo_1.cycles) < (ref_100.cycles / ref_1.cycles)

    def test_memory_port_idle_reduced(self, streaming_trace):
        ref = simulate_reference(streaming_trace, ReferenceParams())
        ooo = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16))
        assert ooo.memory_port_idle_fraction() < ref.memory_port_idle_fraction()

    def test_late_commit_costs_performance(self, recurrence_trace):
        early = simulate_ooo(recurrence_trace, OOOParams(num_phys_vregs=16))
        late = simulate_ooo(recurrence_trace,
                            OOOParams(num_phys_vregs=16, commit_model=CommitModel.LATE))
        assert late.cycles > early.cycles
        # the stores late commit holds until they reach the ROB head
        assert any(dyn.is_store for dyn in recurrence_trace)

    def test_late_commit_mild_for_streaming_code(self, streaming_trace):
        early = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16))
        late = simulate_ooo(streaming_trace,
                            OOOParams(num_phys_vregs=16, commit_model=CommitModel.LATE))
        assert late.cycles <= early.cycles * 1.35

    def test_vector_load_elimination_removes_recurrence_traffic(self, recurrence_trace):
        base_params = OOOParams(num_phys_vregs=32, commit_model=CommitModel.LATE)
        baseline = simulate_ooo(recurrence_trace, base_params)
        vle = simulate_ooo(
            recurrence_trace,
            dataclasses.replace(base_params, load_elimination=LoadElimination.SLE_VLE),
        )
        assert vle.loads_eliminated > 0
        assert vle.cycles < baseline.cycles
        assert vle.traffic.total_ops < baseline.traffic.total_ops
        assert vle.traffic.eliminated_vector_load_ops > 0

    def test_elimination_never_changes_work_done(self, recurrence_trace):
        base_params = OOOParams(num_phys_vregs=32, commit_model=CommitModel.LATE)
        baseline = simulate_ooo(recurrence_trace, base_params)
        vle = simulate_ooo(
            recurrence_trace,
            dataclasses.replace(base_params, load_elimination=LoadElimination.SLE_VLE),
        )
        assert vle.vector_operations == baseline.vector_operations
        # every removed request is accounted for
        assert (vle.traffic.total_ops + vle.traffic.total_eliminated_ops
                == baseline.traffic.total_ops)

    def test_queue_pressure_reported(self, streaming_trace):
        tight = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16, queue_slots=1))
        roomy = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16, queue_slots=128))
        assert tight.cycles >= roomy.cycles

    def test_branch_prediction_counters(self, streaming_trace):
        stats = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=16))
        assert stats.branch_instructions > 0
        assert 0 <= stats.branch_mispredictions <= stats.branch_instructions

    def test_few_physical_registers_cause_rename_stalls(self, streaming_trace):
        tight = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=9))
        roomy = simulate_ooo(streaming_trace, OOOParams(num_phys_vregs=64))
        assert tight.rename_stall_cycles > roomy.rename_stall_cycles


class TestStallCycleAccounting:
    """Regression tests pinning stall *cycle* counts on a hand-built trace.

    The stall counters used to increment by 1 per stall event while the
    statistics reported them as ``*_stall_cycles``; they now accumulate the
    cycles actually waited (``blocked_until - granted``).  The timings below
    are hand-derived from the default latencies: a VADD with vl=4 occupies
    its unit for vl + startup = 8 cycles and completes
    read_crossbar(1) + add(4) + write_crossbar(2) + vl = 11 cycles after it
    starts.
    """

    @staticmethod
    def _vadd_chain() -> Trace:
        """Three dependent VADDs: each consumes the previous result."""
        def vadd(seq: int, dest: int, src: int) -> DynInstr:
            return DynInstr(seq=seq, opcode=Opcode.VADD, pc=seq, dest=vreg(dest),
                            srcs=(vreg(src), vreg(src)), vl=4)

        return Trace("vadd-chain", [vadd(0, 3, 1), vadd(1, 4, 3), vadd(2, 5, 4)])

    def test_queue_stall_cycles_pinned(self):
        # With a single V-queue slot, instruction 2 cannot be admitted until
        # instruction 1 issues.  Instruction 0 issues at cycle 1 (first
        # result at 8); instruction 1 is admitted at 1 but only issues at 8
        # when its source is chainable; instruction 2 asks for admission at
        # cycle 2 and is granted at 8 — a 6-cycle stall in one stall event.
        stats = simulate_ooo(self._vadd_chain(), OOOParams(queue_slots=1))
        assert stats.queue_stall_cycles == 6
        assert stats.rob_stall_cycles == 0
        assert stats.rename_stall_cycles == 0
        assert stats.cycles == 26

    def test_rob_stall_cycles_pinned(self):
        # With a single reorder-buffer entry and late commit, every
        # instruction must wait for its predecessor to complete before it
        # can even be allocated an entry: instruction 1 asks at cycle 1 and
        # waits until 0 commits at 12 (11 cycles); instruction 2 asks at 13
        # and waits until 1 commits at 24 (11 cycles).
        stats = simulate_ooo(
            self._vadd_chain(),
            OOOParams(rob_entries=1, commit_model=CommitModel.LATE),
        )
        assert stats.rob_stall_cycles == 22
        assert stats.queue_stall_cycles == 0
        assert stats.cycles == 36

"""Batched-kernel equivalence: the stepper reaches the spec's SimStats.

The batched kernel (:mod:`repro.machine.batched`) pre-lowers a trace into
structure-of-arrays columns and steps each machine through a registered
per-machine loop over them; the scalar kernel is the per-instruction
dispatch table, the executable spec.  Their contract is *bit-identical*
:class:`~repro.common.stats.SimStats` for every registered machine on any
instruction sequence the stepper runs as one slice on a fresh machine —
whole traces, slices cut from a trace and generated streams.  The rest of
the machine's state is the stepper's own, and only the spec resumes:
``run_slice_batched`` refuses a machine either kernel has advanced.  Every
result the stepper reaches must also keep the bounds of
:func:`~repro.common.stats.check_invariants`, and a test pins every field's
total, which agreement between the kernels cannot see.  Machines without a
registered stepper must fall back to their own ``run_slice`` untouched
(the bring-your-own-machine path).  The whole-state oracle
(:func:`machine_state.state`) holds the spec to its resumability in
``tests/test_machine_kernel.py`` and, at every instruction boundary of
the full traces, here, where its own tests stay too.

Every simulated point runs on the batched stepper, so these tests are
what holds it to the scalar spec: on all ten programs under the six
configurations of the evaluation, on the sweep extremes of the exhibits,
and on generated instruction streams that reach every opcode.
"""

import array
import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from machine_state import mutable_parts, state

from repro.common.errors import SimulationError
from repro.common.params import CommitModel, LoadElimination, ReferenceParams
from repro.common.stats import check_invariants
from repro.core.config import (
    DEFAULT_LATENCY,
    LATENCY_SWEEP,
    REFERENCE_LATENCY_SWEEP,
    REGISTER_SWEEP,
    MachineConfig,
    inorder_config,
    machine_config,
    ooo_config,
    reference_config,
    standard_configs,
)
from repro.core.machines import create_run, get_machine_model, machine_names
from repro.isa.instructions import ELEMENT_BYTES
from repro.isa.opcodes import InstrKind, MemAccess, Opcode
from repro.isa.registers import RegClass, Register
from repro.machine.batched import (
    LoweredTrace,
    has_lowering,
    lowered_for,
    run_slice_batched,
    stepper_for,
)
from repro.trace.records import DynInstr, Trace
from repro.trace.stats import TraceStatistics, compute_trace_statistics
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

MACHINES = machine_names()

#: every program of the suite, at the smallest scale
ALL_TRACES = {name: get_workload(name, "tiny").trace() for name in WORKLOAD_NAMES}

#: traces of different shapes: vector-heavy, memory-heavy, scalar-mixed
TRACES = {name: ALL_TRACES[name] for name in ("trfd", "swm256", "tomcatv")}


def _fresh_run(name, trace):
    model = get_machine_model(name)
    return model.factory(model.params_type(), trace)


def _finalised(machine):
    return machine.finalise().to_dict()


def _assert_kernels_agree(config, trace, instructions):
    """The stepper, run on a fresh machine, reaches the scalar
    ``run_slice``'s stats, and they keep the per-result bounds."""
    scalar = create_run(config.params, trace)
    scalar.run_slice(instructions)
    batched = create_run(config.params, trace)
    run_slice_batched(batched, instructions)
    stats = batched.finalise()
    assert stats.to_dict() == _finalised(scalar)
    check_invariants(stats)


# -- the configurations of the exhibits ----------------------------------

#: each registered machine at its defaults, and the six named configurations
#: every exhibit compares (three of them are those defaults)
FULL_TRACE_CONFIGS = {
    **{name: machine_config(name) for name in MACHINES},
    **standard_configs(),
}

#: the extremes of the exhibits' sweeps: memory latency (Figures 3, 4, 8),
#: physical vector registers (Figures 5, 9), queue slots and late commit
#: (Section 5), and the in-order design point; and two bankings of the
#: reference register file (Section 2.1), which no exhibit sweeps: one
#: register per bank with one port each way, and all eight registers in
#: one bank with one read port
SWEEP_EXTREMES = {
    "reference-lat1": reference_config(1),
    "reference-lat100": reference_config(100),
    "reference-bank-per-vreg": MachineConfig("reference", ReferenceParams(
        vregs_per_bank=1, bank_read_ports=1, bank_write_ports=1)),
    "reference-one-bank": MachineConfig("reference", ReferenceParams(
        vregs_per_bank=8, bank_read_ports=1)),
    "ooo-regs9-lat1": ooo_config(9, 1),
    "ooo-regs9-lat100": ooo_config(9, 100),
    "ooo-regs64-lat1": ooo_config(64, 1),
    "ooo-regs64-lat100": ooo_config(64, 100),
    "ooo-queue4": ooo_config(queue_slots=4),
    "ooo-late-regs9": ooo_config(9, commit_model=CommitModel.LATE),
    "inorder-regs9": inorder_config(9),
}

#: every memory latency an exhibit sweeps
LATENCIES = tuple(sorted({*REFERENCE_LATENCY_SWEEP, *LATENCY_SWEEP, DEFAULT_LATENCY}))


def sweep_configs():
    """Any configuration of the sweep space the exhibits draw from."""
    latency = st.sampled_from(LATENCIES)
    regs = st.sampled_from(REGISTER_SWEEP)
    slots = st.sampled_from((4, 16))
    return st.one_of(
        st.builds(reference_config, latency),
        st.builds(inorder_config, regs, latency, slots),
        st.builds(ooo_config, regs, latency, st.sampled_from(CommitModel),
                  st.sampled_from(LoadElimination), slots),
    )


# -- generated instruction streams ---------------------------------------

A_REGS = tuple(Register(RegClass.A, i) for i in range(3))
S_REGS = tuple(Register(RegClass.S, i) for i in range(3))
SCALAR_REGS = A_REGS + S_REGS
V_REGS = tuple(Register(RegClass.V, i) for i in range(4))
VM_REGS = tuple(Register(RegClass.VM, i) for i in range(2))

#: operand shape per opcode, as the code generator emits it:
#: (destination pool or ``None``, one pool per source)
_BINARY = (SCALAR_REGS, (SCALAR_REGS, SCALAR_REGS))
_UNARY = (SCALAR_REGS, (SCALAR_REGS,))
_VECTOR_BINARY = (V_REGS, (V_REGS, V_REGS))
_VECTOR_UNARY = (V_REGS, (V_REGS,))
OPERAND_SHAPES = {
    **{op: _BINARY for op in (
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND, Opcode.OR,
        Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.CMP, Opcode.FADD,
        Opcode.FSUB, Opcode.FMUL, Opcode.FDIV)},
    Opcode.MOV: _UNARY,
    Opcode.FSQRT: _UNARY,
    Opcode.LI: (SCALAR_REGS, ()),
    Opcode.LOAD: (SCALAR_REGS, (A_REGS,)),
    Opcode.STORE: (None, (SCALAR_REGS, A_REGS)),
    Opcode.BR: (None, (SCALAR_REGS,)),
    Opcode.JMP: (None, ()),
    Opcode.CALL: (None, ()),
    Opcode.RET: (None, ()),
    Opcode.SETVL: (None, (A_REGS,)),
    Opcode.SETVS: (None, ()),
    **{op: _VECTOR_BINARY for op in (
        Opcode.VADD, Opcode.VSUB, Opcode.VAND, Opcode.VOR, Opcode.VXOR,
        Opcode.VSHL, Opcode.VSHR, Opcode.VMAX, Opcode.VMIN, Opcode.VMUL,
        Opcode.VDIV)},
    **{op: _VECTOR_UNARY for op in (Opcode.VNEG, Opcode.VABS, Opcode.VSQRT)},
    Opcode.VCMP: (VM_REGS, (V_REGS, V_REGS)),
    Opcode.VMERGE: (V_REGS, (V_REGS, V_REGS, VM_REGS)),
    Opcode.VSADD: (V_REGS, (V_REGS, S_REGS)),
    Opcode.VSMUL: (V_REGS, (V_REGS, S_REGS)),
    Opcode.VSUM: (S_REGS, (V_REGS,)),
    Opcode.VBCAST: (V_REGS, (S_REGS,)),
    Opcode.VLOAD: (V_REGS, (A_REGS,)),
    Opcode.VLOADS: (V_REGS, (A_REGS,)),
    Opcode.VGATHER: (V_REGS, (A_REGS, V_REGS)),
    Opcode.VSTORE: (None, (V_REGS, A_REGS)),
    Opcode.VSTORES: (None, (V_REGS, A_REGS)),
    Opcode.VSCATTER: (None, (V_REGS, A_REGS, V_REGS)),
}

#: a small address pool: load elimination needs exact tag matches, and
#: overlapping ranges exercise memory disambiguation.  Compiled programs
#: place their data at 64 KiB and up; base 0 lets a negative stride reach
#: below address 0, a range the stepper must disambiguate like any other
ADDRESSES = (0, 65536, 65544, 65600, 66560, 66632)
VECTOR_LENGTHS = (1, 7, 64, 128)
STRIDES = (ELEMENT_BYTES, 2 * ELEMENT_BYTES, -ELEMENT_BYTES, -3 * ELEMENT_BYTES)
#: a few static branch sites, so the predictor sees each more than once
BRANCH_PCS = (3, 17, 67)


@st.composite
def instructions(draw, opcode, seq):
    """One :class:`DynInstr` of ``opcode``, with the trace generator's fields."""
    dest_pool, src_pools = OPERAND_SHAPES[opcode]
    is_branch = opcode.kind is InstrKind.BRANCH
    dyn = DynInstr(
        seq=seq,
        opcode=opcode,
        pc=draw(st.sampled_from(BRANCH_PCS)) if is_branch else 1000 + seq,
        dest=draw(st.sampled_from(dest_pool)) if dest_pool else None,
        srcs=tuple(draw(st.sampled_from(pool)) for pool in src_pools),
    )
    if opcode.is_vector:
        dyn.vl = draw(st.sampled_from(VECTOR_LENGTHS))
    if is_branch:
        dyn.taken = draw(st.booleans()) if opcode is Opcode.BR else True
        dyn.is_call = opcode is Opcode.CALL
        dyn.is_return = opcode is Opcode.RET
    if opcode.is_memory:
        stride = ELEMENT_BYTES
        if opcode.info.access is not MemAccess.UNIT:
            stride = draw(st.sampled_from(STRIDES))
        _access(dyn, draw(st.sampled_from(ADDRESSES)), stride)
        dyn.is_spill = draw(st.booleans())
    return dyn


def _access(dyn, base, stride):
    """Give memory instruction ``dyn`` its address, stride and byte range."""
    count = dyn.vl if dyn.is_vector else 1
    dyn.address = base
    dyn.stride = stride
    if dyn.opcode.info.access is MemAccess.INDEXED:
        dyn.region_start = base
        dyn.region_end = base + max(abs(stride) * count, ELEMENT_BYTES)
    else:
        span = (count - 1) * stride
        dyn.region_start = base + min(0, span)
        dyn.region_end = base + max(0, span) + ELEMENT_BYTES
    return dyn


@st.composite
def streams(draw, opcodes=None):
    """A stream of generated instructions; random opcodes unless given."""
    if opcodes is None:
        opcodes = draw(st.lists(st.sampled_from(tuple(OPERAND_SHAPES)),
                                min_size=1, max_size=40))
    return [draw(instructions(op, seq)) for seq, op in enumerate(opcodes)]


def test_traces_cover_every_instr_kind():
    # the equivalence tests below prove a kind's batched branch against
    # its scalar handler only if some trace contains that kind
    present = {dyn.kind for trace in TRACES.values() for dyn in trace.instructions}
    assert set(InstrKind) - present == set()


def test_generated_streams_cover_every_opcode():
    # the tiny programs reach only 28 of the 51 opcodes (none reaches
    # VSCATTER or the scalar_div class); the generated streams draw from
    # every opcode, and each stream of test_every_opcode_stream holds all
    assert set(OPERAND_SHAPES) == set(Opcode)


class TestStateOracle:
    """The oracle itself: it sees every field and refuses what it cannot."""

    def test_scan_cache_difference_is_visible(self):
        # mempipe._active is a scan cache no statistic reads directly; a
        # stepper that fails to write it back must still be caught
        trace = TRACES["swm256"]
        first = _fresh_run("ooo", trace)
        second = _fresh_run("ooo", trace)
        for machine in (first, second):
            machine.run_slice(trace.instructions[:200])
        assert state(first) == state(second)
        assert first.mempipe._active
        second.mempipe._active = []
        assert state(first) != state(second)

    def test_deque_contents_are_compared(self):
        assert state(collections.deque([1, 2])) != state(collections.deque([1, 3]))
        assert state(collections.deque([1, 2])) == state([1, 2])

    def test_opaque_objects_are_refused(self):
        with pytest.raises(TypeError):
            state(array.array("q", [1, 2]))
        with pytest.raises(TypeError):
            state(object())

    def test_slots_are_walked(self):
        class Slotted:
            __slots__ = ("head", "tail")

            def __init__(self, tail):
                self.head = 1
                self.tail = tail

        assert state(Slotted(2)) == ("Slotted", {"head": 1, "tail": 2})
        assert state(Slotted(2)) != state(Slotted(3))

    def test_inputs_are_skipped(self):
        # params, trace and lat are what a run starts from, not state it
        # reaches: machines that differ only in them compare equal
        first = _fresh_run("ooo", TRACES["trfd"])
        second = _fresh_run("ooo", TRACES["trfd"])
        second.params = second.params.with_memory_latency(7)
        second.trace = TRACES["swm256"]
        second.lat = None
        assert state(first) == state(second)
        assert not {"params", "trace", "lat"} & set(state(first)[1])

    def test_sets_compare_by_content(self):
        assert state({3, 1, 2}) == state({1, 2, 3}) == [1, 2, 3]
        assert state({1, 2}) != state({1, 3})

    def test_the_class_is_part_of_the_state(self):
        class First:
            def __init__(self):
                self.value = 1

        class Second(First):
            pass

        assert state(First()) != state(Second())

    def test_mutable_parts_are_what_can_change(self):
        class Holder:
            def __init__(self, table):
                self.table = table
                self.pair = (1, [2])
                self.params = []

        shared = {}
        holder = Holder(shared)
        parts = [id(part) for part in mutable_parts(holder)]
        # the object, its dict and the list inside the tuple; never the
        # tuple itself, and nothing behind an input such as params
        assert parts == [id(holder), id(shared), id(holder.pair[1])]


class TestEveryRegisteredMachine:
    """Full-trace equivalence over the registry and the exhibits' configurations."""

    @pytest.mark.parametrize("name", FULL_TRACE_CONFIGS)
    @pytest.mark.parametrize("workload", sorted(ALL_TRACES))
    def test_full_trace_stats_identical(self, name, workload):
        trace = ALL_TRACES[workload]
        _assert_kernels_agree(FULL_TRACE_CONFIGS[name], trace, trace)

    @pytest.mark.parametrize("config", SWEEP_EXTREMES)
    @pytest.mark.parametrize("workload", sorted(TRACES))
    def test_sweep_extremes(self, config, workload):
        trace = TRACES[workload]
        _assert_kernels_agree(SWEEP_EXTREMES[config], trace, trace)

    @pytest.mark.parametrize("name", MACHINES)
    def test_builtin_machines_have_a_registered_stepper(self, name):
        # the three shipped machines must take the fast path, not the
        # fallback — otherwise a kernel comparison silently measures scalar
        # against scalar
        assert has_lowering(_fresh_run(name, TRACES["trfd"]))

    @pytest.mark.parametrize("name", MACHINES)
    def test_state_carries_over_between_calls(self, name):
        # the spec's run_slice is resumable: resumed across two calls it
        # lands on the stats the stepper reaches in one
        trace = TRACES["trfd"]
        cut = len(trace) // 2
        whole = _fresh_run(name, trace)
        run_slice_batched(whole, trace)
        split = _fresh_run(name, trace)
        split.run_slice(trace.instructions[:cut])
        split.run_slice(trace.instructions[cut:])
        assert _finalised(split) == _finalised(whole), name

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    @pytest.mark.parametrize("name", MACHINES)
    def test_stepper_refuses_an_advanced_machine(self, name, kernel):
        # the stepper owns its state and runs one slice on a fresh
        # machine: it cannot resume one that either kernel has advanced
        trace = TRACES["trfd"]
        machine = _fresh_run(name, trace)
        run_slice_batched(machine, [])  # an empty slice advances nothing
        if kernel == "batched":
            run_slice_batched(machine, trace.instructions[:1])
        else:
            machine.run_slice(trace.instructions[:1])
        with pytest.raises(SimulationError, match="already stepped"):
            run_slice_batched(machine, trace.instructions[1:])


@pytest.mark.parametrize("name", FULL_TRACE_CONFIGS)
@pytest.mark.parametrize("workload", sorted(ALL_TRACES))
def test_spec_resumes_at_every_instruction_boundary(name, workload):
    # only the spec resumes: one instruction per call lands on the state
    # of one whole call, and at every boundary the stepper refuses the
    # advanced machine without touching it
    trace = ALL_TRACES[workload]
    params = FULL_TRACE_CONFIGS[name].params
    whole = create_run(params, trace)
    whole.run_slice(trace)
    stepped = create_run(params, trace)
    for dyn in trace.instructions:
        stepped.run_slice([dyn])
        with pytest.raises(SimulationError, match="already stepped"):
            run_slice_batched(stepped, [dyn])
    assert state(stepped) == state(whole)
    batched = create_run(params, trace)
    run_slice_batched(batched, trace)
    assert _finalised(stepped) == _finalised(whole) == _finalised(batched)


#: every ``SimStats`` field summed over the ten programs under the six
#: standard configurations (``unit_states`` counts as its total)
STANDARD_TOTALS = {
    "address_port_busy_cycles": 350_344,
    "branch_instructions": 756,
    "branch_mispredictions": 280,
    "cycles": 524_621,
    "loads_eliminated": 166,
    "queue_stall_cycles": 52_706,
    "rename_stall_cycles": 267_452,
    "rob_stall_cycles": 26_181,
    "scalar_instructions": 23_256,
    "traffic.eliminated_scalar_load_ops": 1_132,
    "traffic.eliminated_vector_load_ops": 6_316,
    "traffic.scalar_load_ops": 3_602,
    "traffic.scalar_load_spill_ops": 1_578,
    "traffic.scalar_store_ops": 3_114,
    "traffic.scalar_store_spill_ops": 1_728,
    "traffic.vector_load_ops": 246_488,
    "traffic.vector_load_spill_ops": 16_476,
    "traffic.vector_store_ops": 97_140,
    "traffic.vector_store_spill_ops": 16_476,
    "unit_busy.FU1": 185_157,
    "unit_busy.FU2": 253_503,
    "unit_busy.MEM": 343_628,
    "unit_states": 524_621,
    "vector_instructions": 11_130,
    "vector_operations": 765_300,
}


def test_every_stats_field_keeps_its_total():
    # kernel agreement cannot see a change made alike in both kernels, and
    # the exhibits read only some fields: this pins every field a run
    # reports, branch_mispredictions included
    totals = collections.Counter()
    for config in standard_configs().values():
        for trace in ALL_TRACES.values():
            machine = create_run(config.params, trace)
            run_slice_batched(machine, trace)
            for field, value in _finalised(machine).items():
                if field == "unit_states":
                    totals[field] += sum(count for _, count in value)
                elif isinstance(value, dict):
                    totals.update({f"{field}.{key}": count for key, count in value.items()})
                else:
                    totals[field] += value
    assert dict(totals) == STANDARD_TOTALS


class TestArbitrarySlices:
    """Hypothesis: any slice of a trace or generated stream, identical results."""

    @given(
        name=st.sampled_from(MACHINES),
        workload=st.sampled_from(sorted(TRACES)),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_slice_equivalence(self, name, workload, data):
        trace = TRACES[workload]
        start = data.draw(st.integers(min_value=0, max_value=len(trace) - 1))
        stop = data.draw(st.integers(min_value=start + 1, max_value=len(trace)))
        window = trace.instructions[start:stop]
        _assert_kernels_agree(machine_config(name), trace, window)

    @given(config=sweep_configs(), stream=streams())
    @settings(max_examples=100, deadline=None)
    def test_generated_stream(self, config, stream):
        # the trace only builds the machine; the stream is what it steps
        _assert_kernels_agree(config, TRACES["trfd"], stream)
        # the lowering counts its columns as the spec's rule counts records
        assert TraceStatistics.from_stats("stream", LoweredTrace(stream).counts) == \
            compute_trace_statistics(Trace("stream", stream))

    @given(config=sweep_configs(), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_every_opcode_stream(self, config, data):
        opcodes = data.draw(st.permutations(tuple(OPERAND_SHAPES)))
        stream = data.draw(streams(opcodes))
        _assert_kernels_agree(config, TRACES["trfd"], stream)


@pytest.mark.parametrize("commit", CommitModel)
def test_access_below_address_zero_is_disambiguated(commit):
    # a strided load whose range starts below address 0 must wait for the
    # older overlapping store on the stepper as on the spec; a stepper that
    # takes a negative start for "no memory access" lets it pass, and ends
    # 57 cycles early under either commit model
    v0, v1, _, v3 = V_REGS
    stream = [
        DynInstr(0, Opcode.VDIV, 1000, dest=v3, srcs=(v0, v1), vl=128),
        _access(DynInstr(1, Opcode.VSTORE, 1001, srcs=(v3, A_REGS[0]), vl=128),
                0, ELEMENT_BYTES),
        _access(DynInstr(2, Opcode.VLOADS, 1002, dest=v1, srcs=(A_REGS[0],), vl=7),
                0, -ELEMENT_BYTES),
    ]
    assert stream[2].region_start < 0
    _assert_kernels_agree(ooo_config(commit_model=commit), TRACES["trfd"], stream)


def test_zero_length_vector_access_puts_one_operation_on_the_bus():
    # no compiled trace has a vector instruction with vl 0, but the one
    # counting rule covers it: max(vl, 1) operations reach the bus (spill
    # share included), while vector_operations adds the raw vl
    v0 = V_REGS[0]
    stream = [
        _access(DynInstr(0, Opcode.VLOAD, 1000, dest=v0, srcs=(A_REGS[0],),
                         is_spill=True), 65536, ELEMENT_BYTES),
        _access(DynInstr(1, Opcode.VSTORE, 1001, srcs=(v0, A_REGS[1]),
                         is_spill=True), 66560, ELEMENT_BYTES),
    ]
    assert all(dyn.vl == 0 for dyn in stream)
    expected = TraceStatistics(
        "zero",
        0, 2, 0, 0,  # scalar, vector and branch instructions, vector operations
        1, 1, 1, 1,  # vector load and store operations, each with its spill share
        0, 0, 0, 0,  # scalar load and store operations
    )
    assert compute_trace_statistics(Trace("zero", stream)) == expected
    for config in standard_configs().values():
        _assert_kernels_agree(config, TRACES["trfd"], stream)
        machine = create_run(config.params, TRACES["trfd"])
        run_slice_batched(machine, stream)
        assert TraceStatistics.from_stats("zero", machine.finalise()) == expected


class TestLoweringCache:
    def test_lowered_for_memoises_per_trace(self):
        trace = TRACES["trfd"]
        assert lowered_for(trace) is lowered_for(trace)

    @pytest.mark.parametrize("workload", sorted(ALL_TRACES))
    def test_lowering_covers_and_counts_the_whole_trace(self, workload):
        trace = ALL_TRACES[workload]
        lowered = lowered_for(trace)
        assert lowered.n == len(trace.instructions)
        assert TraceStatistics.from_stats(workload, lowered.counts) == \
            compute_trace_statistics(trace)


class TestUnregisteredMachineFallback:
    """A machine with no registered stepper runs its own ``run_slice``."""

    @pytest.fixture()
    def scoreboard(self):
        # the shape of examples/custom_machine.py, without touching the
        # process-global registry: run_slice_batched dispatches on the
        # *class*, so an unregistered class exercises the fallback directly
        class Scoreboard:
            def __init__(self):
                self.cycles = 0
                self.calls = 0

            def run_slice(self, instructions):
                self.calls += 1
                for dyn in instructions:
                    self.cycles += max(dyn.vl, 1) if dyn.is_vector else 1

        return Scoreboard

    def test_fallback_delegates_to_run_slice(self, scoreboard):
        trace = TRACES["trfd"]
        assert stepper_for(scoreboard) is None
        direct = scoreboard()
        direct.run_slice(trace)
        via_batched = scoreboard()
        run_slice_batched(via_batched, trace)
        assert via_batched.cycles == direct.cycles
        assert via_batched.calls == 1  # one pass-through call, no lowering

    def test_custom_machine_example_runs(self):
        # the shipped example must keep working on the batched stepper —
        # its machine takes the fallback, the built-ins the fast path
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = {"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"}
        # a run that must leave no bytecode in the checkout passes that on
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        proc = subprocess.run(
            [sys.executable, str(repo / "examples" / "custom_machine.py")],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert proc.returncode == 0, proc.stderr

"""Batched-kernel equivalence: SoA stepper == scalar dispatch, bit for bit.

The batched kernel (:mod:`repro.machine.batched`) pre-lowers a trace into
structure-of-arrays columns and steps each machine through a registered
per-machine segment loop; the scalar kernel is the per-instruction dispatch
table.  Their contract is *bit-identical* :class:`~repro.common.stats.SimStats`
and machine state for every registered machine, on any instruction
sequence — including mid-trace slices, since ``run_slice`` is resumable by
the ``Machine`` contract.  "Machine state" is every attribute reachable
from the machine object (:func:`machine_state.state`), so a field the
batched stepper forgets to write back cannot hide.  Machines without a
registered stepper must fall back to their own ``run_slice`` untouched
(the bring-your-own-machine path).
"""

import array
import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from machine_state import mutable_parts, state

from repro.core.machines import get_machine_model, machine_names
from repro.isa.opcodes import InstrKind
from repro.machine.batched import (
    has_lowering,
    lowered_for,
    run_slice_batched,
    stepper_for,
)
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


def test_traces_cover_every_instr_kind():
    # the equivalence tests below prove a kind's batched branch against
    # its scalar handler only if some trace contains that kind
    present = {dyn.kind for trace in TRACES.values() for dyn in trace.instructions}
    assert set(InstrKind) - present == set()


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
    """Full-trace equivalence, auto-parameterised over the registry."""

    @pytest.mark.parametrize("name", MACHINES)
    @pytest.mark.parametrize("workload", sorted(ALL_TRACES))
    def test_full_trace_stats_and_state_identical(self, name, workload):
        trace = ALL_TRACES[workload]
        scalar = _fresh_run(name, trace)
        scalar.run_slice(trace)
        batched = _fresh_run(name, trace)
        run_slice_batched(batched, trace)
        assert _finalised(batched) == _finalised(scalar), (name, workload)
        assert state(batched) == state(scalar), (name, workload)

    @pytest.mark.parametrize("name", MACHINES)
    def test_builtin_machines_have_a_registered_stepper(self, name):
        # the three shipped machines must take the fast path, not the
        # fallback — otherwise a kernel comparison silently measures scalar
        # against scalar
        assert has_lowering(_fresh_run(name, TRACES["trfd"]))

    @pytest.mark.parametrize("name", MACHINES)
    def test_state_carries_over_between_calls(self, name):
        # run_slice is resumable; interleaving kernels mid-trace must still
        # land on the same state
        trace = TRACES["trfd"]
        cut = len(trace) // 2
        scalar = _fresh_run(name, trace)
        scalar.run_slice(trace)
        mixed = _fresh_run(name, trace)
        run_slice_batched(mixed, trace.instructions[:cut])
        mixed.run_slice(trace.instructions[cut:])
        assert _finalised(mixed) == _finalised(scalar), name


class TestArbitrarySlices:
    """Hypothesis: any contiguous slice of any trace, identical results."""

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
        scalar = _fresh_run(name, trace)
        scalar.run_slice(window)
        batched = _fresh_run(name, trace)
        run_slice_batched(batched, window)
        assert _finalised(batched) == _finalised(scalar), (name, start, stop)
        assert state(batched) == state(scalar), (name, start, stop)


class TestLoweringCache:
    def test_lowered_for_memoises_per_trace(self):
        trace = TRACES["trfd"]
        assert lowered_for(trace) is lowered_for(trace)

    def test_lowering_covers_the_whole_trace(self):
        trace = TRACES["swm256"]
        assert lowered_for(trace).n == len(trace.instructions)


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

    def test_custom_machine_example_runs_both_kernels(self):
        # the shipped example must keep working under kernel=batched —
        # its machine takes the fallback, the built-ins the fast path
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env_src = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, str(repo / "examples" / "custom_machine.py")],
            capture_output=True, text=True, timeout=600,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin",
                 "REPRO_KERNEL": "batched"},
        )
        assert proc.returncode == 0, proc.stderr

"""An independent oracle for the unit aggregates every result carries.

``finalise`` reduces the vector units' busy intervals to each unit's busy
cycles and to the cycle count of every joint (FU2, FU1, MEM) state, in one
sweep (:func:`repro.common.intervals.unit_activity`).  Here the same
numbers are counted the slow way — one cycle at a time, from the raw
rows of the busy calendars the machine holds just before ``finalise`` —
sharing no code with the sweep, for every registered machine on every
program, on both kernels.  On the OOOVA family those are the FU1/FU2 gap
resources and the MEM unit's calendar; on the reference machine, the
three units' calendars.
"""

import pytest

from repro.common.stats import VECTOR_UNIT_ORDER
from repro.core.machines import get_machine_model, machine_names
from repro.machine.batched import run_slice_batched
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

MACHINES = machine_names()

TRACES = {name: get_workload(name, "tiny").trace() for name in WORKLOAD_NAMES}


def _calendar_rows(machine):
    """Copies of the (FU2, FU1, MEM) units' calendar rows."""
    if hasattr(machine, "mem_unit"):  # the reference machine's units
        calendars = (machine.fu2.busy, machine.fu1.busy, machine.mem_unit.busy)
    else:
        # the OOOVA pipeline and the in-order machine built on it: FU1 and
        # FU2 are gap resources, which are calendars themselves
        calendars = (machine.fu2, machine.fu1, machine.mem_busy)
    return [list(zip(calendar._starts, calendar._ends, strict=True))
            for calendar in calendars]


def _per_cycle(units, cycles):
    """Busy cycles per unit and cycles per state, counted cycle by cycle."""
    horizon = max([cycles] + [end for intervals in units for _, end in intervals])
    flags = []
    for intervals in units:
        busy = bytearray(horizon)
        for start, end in intervals:
            busy[start:end] = b"\x01" * (end - start)
        flags.append(busy)
    fu2, fu1, mem = flags
    states = {}
    for cycle in range(cycles):
        state = (fu2[cycle] == 1, fu1[cycle] == 1, mem[cycle] == 1)
        states[state] = states.get(state, 0) + 1
    return [busy.count(1) for busy in flags], states


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("name", MACHINES)
def test_aggregates_match_a_per_cycle_count(name, workload, kernel):
    trace = TRACES[workload]
    model = get_machine_model(name)
    machine = model.factory(model.params_type(), trace)
    if kernel == "batched":
        run_slice_batched(machine, trace)
    else:
        machine.run_slice(trace)
    units = _calendar_rows(machine)
    stats = machine.finalise()
    busy, states = _per_cycle(units, stats.cycles)
    # keys, values and first-occurrence order
    assert list(stats.state_breakdown().items()) == list(states.items())
    assert stats.unit_busy == dict(zip(VECTOR_UNIT_ORDER, busy, strict=True))
    assert stats.ideal_cycles() == max(busy)
    assert any(busy), "a vacuous run proves nothing"

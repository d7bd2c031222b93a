"""Hand-lowered batched stepper for the reference (in-order) machine.

This is the :mod:`repro.machine.batched` lowering of
:class:`repro.refsim.machine._ReferenceRun`: one flat loop over the
lowered columns that steps one whole slice on a fresh machine
(:func:`~repro.machine.batched.run_slice_batched` refuses any other) and
leaves ``finalise`` exactly the spec's
:class:`~repro.common.stats.SimStats`.  Its arms follow the spec's
handlers: ``_run_vector_compute``, memory (``_run_vector_memory`` and
``_run_scalar_memory``, which share the address-bus reservation),
``_run_branch`` and ``_run_scalar``.  Like :mod:`repro.ooo.batched` it
keeps its own state, shaped for the loop rather than after the spec's
components:

* register timing is three flat lists indexed by the lowered register
  id: ``ready``, ``read_until`` (when the last issued reader of the value
  is done with it) and ``chain``, the cycle a consumer may start reading
  the value.  ``chain`` is written where the value is produced: a
  functional unit's V or VM result chains from its first result, and
  every other value from ``ready``, because loads never chain.  So no
  read tests the producer or the register class;
* the banked register file is two tables that map each V register id to
  its bank's read or write ports, each port a ``(starts, ends)``
  calendar built from the machine's parameters.  :func:`_earliest` and
  :func:`_reserve` probe and reserve a bank for the vector-ALU arm (port
  negotiation, then reservation) and the memory arm alike, and
  :func:`_reserve` books the address bus too;
* the issue cycle and the three units' free cycles are locals.

The FU1, FU2, MEM and address-bus calendars are updated in place: a unit
starts at or after its free cycle, the end of its calendar's last row,
so its new row only ever extends that row or follows it.  After the loop
the stepper writes back only ``horizon``, all that ``finalise`` reads
besides those calendars.  It counts no statistic:
:func:`~repro.machine.batched.run_slice_batched` adds the slice's
instruction, operation and traffic counts before it steps.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.common.params import NUM_ARCH_VREGS
from repro.machine.batched import (
    K_BRANCH,
    K_SCALAR_LOAD,
    K_VECTOR_ALU,
    K_VECTOR_LOAD,
    K_VECTOR_STORE,
    MEMORY_KINDS,
    NUM_REG_IDS,
    V_ID,
    LoweredTrace,
    gap_find,
    gap_insert,
    latency_tables,
    register_stepper,
)
from repro.refsim.machine import _PORT_NEGOTIATION_ROUNDS, _ReferenceRun

#: a register-file port (or the address bus): its busy calendar's rows
Port = Tuple[List[int], List[int]]


def _port_table(params: Any, ports: int) -> List[Optional[List[Port]]]:
    """Per register id, the ``ports`` ports of a V register's bank; ``None``
    for every other id."""
    per_bank = params.vregs_per_bank
    num_banks = -(-NUM_ARCH_VREGS // per_bank)
    banks: List[List[Port]] = [
        [([], []) for _ in range(ports)] for _ in range(num_banks)
    ]
    table: List[Optional[List[Port]]] = [None] * NUM_REG_IDS
    for index in range(NUM_ARCH_VREGS):
        table[V_ID + index] = banks[index // per_bank]
    return table


def _earliest(ports: List[Port], at: int, duration: int) -> int:
    """The earliest start at or after ``at`` that one of ``ports`` can serve."""
    best = -1
    for starts, ends in ports:
        s = gap_find(starts, ends, at, duration) if ends and at < ends[-1] else at
        if s == at:
            return at
        if best < 0 or s < best:
            best = s
    return best


def _reserve(ports: List[Port], at: int, duration: int) -> int:
    """Reserve ``duration`` cycles on the port of ``ports`` free earliest at
    or after ``at`` (the first such port on a tie); returns the start."""
    best = ports[0]
    start = -1
    for port in ports:
        ends = port[1]
        s = gap_find(port[0], ends, at, duration) if ends and at < ends[-1] else at
        if start < 0 or s < start:
            best = port
            start = s
            if s == at:
                break
    starts, ends = best
    end = start + duration
    if ends and start < ends[-1]:
        gap_insert(starts, ends, start, end)
    elif ends and ends[-1] == start:
        ends[-1] = end
    else:
        starts.append(start)
        ends.append(end)
    return start


def _step_reference(machine: Any, lowered: LoweredTrace) -> None:
    """Step ``machine``, fresh, over the whole lowered sequence (one slice)."""
    params = machine.params
    # parameter-independent latency tables, indexed by interned class code
    scalar_lat, vec_eff = latency_tables(machine.lat)
    vector_startup = machine.lat.vector_startup
    scalar_mem = machine.lat.scalar_mem
    mem_latency = params.memory.latency
    taken_penalty = params.taken_branch_penalty

    ready = [0] * NUM_REG_IDS
    read_until = [0] * NUM_REG_IDS
    chain = [0] * NUM_REG_IDS
    read_ports = _port_table(params, params.bank_read_ports)
    write_ports = _port_table(params, params.bank_write_ports)

    f1s, f1e = machine.fu1.busy._starts, machine.fu1.busy._ends
    f2s, f2e = machine.fu2.busy._starts, machine.fu2.busy._ends
    ms, me = machine.mem_unit.busy._starts, machine.mem_unit.busy._ends
    address_bus = machine.memory.address_bus
    bus: List[Port] = [(address_bus._starts, address_bus._ends)]

    issue = 0
    fu1_free = 0
    fu2_free = 0
    mem_free = 0
    horizon = 0

    col_kind = lowered.kind_code
    col_src_ids = lowered.src_ids
    col_dest_id = lowered.dest_id
    col_lat = lowered.lat_code
    col_fu2 = lowered.fu2_only
    col_vl1 = lowered.vl1
    col_taken = lowered.taken

    for i in range(lowered.n):
        kc = col_kind[i]
        sids = col_src_ids[i]
        if kc == K_VECTOR_ALU:
            # -- _run_vector_compute ------------------------------------
            vl = col_vl1[i]
            on_fu2 = col_fu2[i] or fu1_free > fu2_free
            start = fu2_free if on_fu2 else fu1_free
            if issue > start:
                start = issue
            for sid in sids:
                if chain[sid] > start:
                    start = chain[sid]
            did = col_dest_id[i]
            wports: Optional[List[Port]] = None
            if did >= 0:
                # the old value's writer and readers must be done
                if ready[did] > start:
                    start = ready[did]
                if read_until[did] > start:
                    start = read_until[did]
                wports = write_ports[did]
            eff = vec_eff[col_lat[i]]

            # port negotiation fixed point (_negotiate_ports)
            candidate = start
            for _ in range(_PORT_NEGOTIATION_ROUNDS):
                adjusted = candidate
                for sid in sids:
                    ports = read_ports[sid]
                    if ports is not None:
                        at = _earliest(ports, candidate, vl)
                        if at > adjusted:
                            adjusted = at
                if wports is not None:
                    at = _earliest(wports, adjusted + eff, vl) - eff
                    if at > adjusted:
                        adjusted = at
                if adjusted == candidate:
                    break
                candidate = adjusted
            start = candidate

            # port reservations (_reserve_ports)
            for sid in sids:
                ports = read_ports[sid]
                if ports is not None:
                    _reserve(ports, start, vl)
            if wports is not None:
                _reserve(wports, start + eff, vl)

            busy_until = start + vl + vector_startup
            if on_fu2:
                fu2_free = busy_until
                us, ue = f2s, f2e
            else:
                fu1_free = busy_until
                us, ue = f1s, f1e
            if ue and ue[-1] == start:
                ue[-1] = busy_until
            else:
                us.append(start)
                ue.append(busy_until)

            first_result = start + eff
            completion = first_result + vl
            until = start + vl
            for sid in sids:
                if sid >= V_ID and until > read_until[sid]:
                    read_until[sid] = until
            if did >= 0:
                ready[did] = completion
                # reductions deliver their scalar result at the end
                chain[did] = first_result if did >= V_ID else completion

            issue = start + 1
            if completion > horizon:
                horizon = completion
            if busy_until > horizon:
                horizon = busy_until
            if issue > horizon:
                horizon = issue

        elif kc in MEMORY_KINDS:
            # -- _run_vector_memory / _run_scalar_memory ----------------
            start = issue
            is_vec = kc == K_VECTOR_LOAD or kc == K_VECTOR_STORE
            if is_vec:
                vl = col_vl1[i]
                if mem_free > start:
                    start = mem_free
            else:
                vl = 1
            ports = None
            lag = 0
            if kc == K_VECTOR_STORE:
                # the stored value may chain from a functional unit; the
                # base address and a scatter's index vector may not
                vid = sids[0]
                if chain[vid] > start:
                    start = chain[vid]
                sids = sids[1:]
                ports = read_ports[vid]
            for sid in sids:
                if ready[sid] > start:
                    start = ready[sid]
            if kc == K_VECTOR_LOAD:
                did = col_dest_id[i]
                if ready[did] > start:
                    start = ready[did]
                if read_until[did] > start:
                    start = read_until[did]
                # a vector load writes its bank ``mem_latency`` cycles
                # after its first address; a store reads its bank at once
                ports = write_ports[did]
                lag = mem_latency
            if ports is not None:
                at = _earliest(ports, start + lag, vl) - lag
                if at > start:
                    start = at

            # the address bus carries one address per element
            s = _reserve(bus, start, vl)
            address_done = s + vl
            if ports is not None:
                _reserve(ports, s + lag, vl)

            if kc == K_VECTOR_LOAD:
                data_ready = s + mem_latency + vl
                # loads never chain
                ready[did] = chain[did] = data_ready
            elif kc == K_VECTOR_STORE:
                data_ready = address_done
                if ports is not None and address_done > read_until[vid]:
                    read_until[vid] = address_done
            elif kc == K_SCALAR_LOAD:
                data_ready = s + scalar_mem
                did = col_dest_id[i]
                if did >= 0:
                    ready[did] = chain[did] = data_ready
            else:
                data_ready = address_done

            if is_vec:
                mem_free = address_done
                if me and me[-1] == s:
                    me[-1] = address_done
                else:
                    ms.append(s)
                    me.append(address_done)
            issue = s + 1
            if data_ready > horizon:
                horizon = data_ready
            if address_done > horizon:
                horizon = address_done
            if issue > horizon:
                horizon = issue

        elif kc == K_BRANCH:
            # -- _run_branch --------------------------------------------
            start = issue
            for sid in sids:
                if ready[sid] > start:
                    start = ready[sid]
            issue = start + 1 + (taken_penalty if col_taken[i] else 0)
            if issue > horizon:
                horizon = issue

        else:
            # -- _run_scalar (SCALAR_ALU / VECTOR_CONTROL default) ------
            start = issue
            for sid in sids:
                if ready[sid] > start:
                    start = ready[sid]
            done = start + scalar_lat[col_lat[i]]
            did = col_dest_id[i]
            if did >= 0:
                ready[did] = chain[did] = done
            issue = start + 1
            if done > horizon:
                horizon = done
            if issue > horizon:
                horizon = issue

    machine.horizon = horizon


register_stepper(_ReferenceRun, _step_reference)

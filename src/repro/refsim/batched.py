"""Hand-lowered batched stepper for the reference (in-order) machine.

This is the :mod:`repro.machine.batched` lowering of
:class:`repro.refsim.machine._ReferenceRun`: one flat loop over the
pre-lowered structure-of-arrays columns that replays the exact semantics
of the scalar dispatch handlers, one instruction at a time.  Its arms
follow the handlers: ``_run_vector_compute``, memory
(``_run_vector_memory`` and ``_run_scalar_memory``, which share the
address-bus reservation), ``_run_branch`` and ``_run_scalar``.

The speed comes from hoisting everything that the scalar kernel
recomputes per instruction: opcode property chains are interned codes,
latencies are table lookups, register timing states are reached through a
flat id-indexed table instead of a ``Register``-hashed dict, the banked
register-file ports and the address bus are driven through the flattened
:func:`~repro.machine.batched.gap_find`/
:func:`~repro.machine.batched.gap_insert` primitives on their calendars,
and the mutable machine scalars (the issue cycle and the horizon) live
in true locals written back once at the end.  The stepper counts no
statistic: :func:`~repro.machine.batched.run_slice_batched` adds the
slice's instruction, operation and traffic counts before it steps, and
runs it on a fresh machine only.  The contract holds the stepper to the
spec's ``SimStats`` alone; this one happens to keep the spec's state
too, mutating the component **objects** (the register timing states,
which exist from the run's construction, the port calendars and the
vector units' busy calendars) in place and in the same order as the
scalar kernel.  A vector unit starts at or after its ``free_at``, the end
of its calendar's last row, so its new row only ever extends that row or
follows it.
"""

from __future__ import annotations

from typing import Any, List

from repro.machine.batched import (
    CLS_CODE,
    K_BRANCH,
    K_SCALAR_LOAD,
    K_VECTOR_ALU,
    K_VECTOR_LOAD,
    K_VECTOR_STORE,
    MEMORY_KINDS,
    REG_ID_STRIDE,
    LoweredTrace,
    gap_find,
    gap_insert,
    latency_tables,
    register_stepper,
)
from repro.refsim.machine import _ReferenceRun

#: flat register-state table size (4 classes × REG_ID_STRIDE id space)
_REG_TABLE = 4 * REG_ID_STRIDE


def _step_reference(machine: Any, lowered: LoweredTrace) -> None:
    params = machine.params
    # parameter-independent latency tables, indexed by interned class code
    scalar_lat, vec_eff = latency_tables(machine.lat)
    vector_startup = machine.lat.vector_startup
    scalar_mem = machine.lat.scalar_mem
    mem_latency = params.memory.latency
    taken_penalty = params.taken_branch_penalty

    # architected register timings: flat id-indexed view over the
    # component dict, which holds every architected register
    reg_state: List[Any] = [None] * _REG_TABLE
    for reg, st in machine.regs.items():
        reg_state[CLS_CODE[reg.cls] * REG_ID_STRIDE + reg.index] = st

    fu1 = machine.fu1
    fu2 = machine.fu2
    mem_unit = machine.mem_unit
    f1s, f1e = fu1.busy._starts, fu1.busy._ends
    f2s, f2e = fu2.busy._starts, fu2.busy._ends
    ms, me = mem_unit.busy._starts, mem_unit.busy._ends
    bus = machine.memory.address_bus
    bus_starts = bus._starts
    bus_ends = bus._ends

    # banked register-file ports, flattened to their (starts, ends) calendars
    regfile = machine.regfile
    regs_per_bank = regfile.regs_per_bank
    read_banks = [[(p._starts, p._ends) for p in bank] for bank in regfile._read_ports]
    write_banks = [[(p._starts, p._ends) for p in bank] for bank in regfile._write_ports]

    # machine scalars, mirrored into locals for the hot loop and flushed
    # back once after the last instruction
    issue_ready = machine.issue_ready
    horizon = machine.horizon

    col_kind = lowered.kind_code
    col_src_cls = lowered.src_cls
    col_src_idx = lowered.src_idx
    col_src_ids = lowered.src_ids
    col_dest_cls = lowered.dest_cls
    col_dest_idx = lowered.dest_idx
    col_dest_id = lowered.dest_id
    col_lat = lowered.lat_code
    col_fu2 = lowered.fu2_only
    col_vl1 = lowered.vl1
    col_taken = lowered.taken

    for i in range(lowered.n):
        kc = col_kind[i]
        if kc == K_VECTOR_ALU:
            # -- _run_vector_compute ------------------------------------
            vl = col_vl1[i]
            if col_fu2[i] or fu1.free_at > fu2.free_at:
                unit = fu2
                us, ue = f2s, f2e
            else:
                unit = fu1
                us, ue = f1s, f1e
            eff = vec_eff[col_lat[i]]

            start = issue_ready
            if unit.free_at > start:
                start = unit.free_at
            row_cls = col_src_cls[i]
            row_idx = col_src_idx[i]
            row_ids = col_src_ids[i]
            nsrc = len(row_ids)
            for k in range(nsrc):
                st = reg_state[row_ids[k]]
                if row_cls[k] <= 1 or st.from_load:
                    r = st.ready
                else:
                    r = st.first_result
                if r > start:
                    start = r
            dc = col_dest_cls[i]
            if dc >= 0:
                dst = reg_state[col_dest_id[i]]
                c = dst.ready
                if dst.read_until > c:
                    c = dst.read_until
                if c > start:
                    start = c
            else:
                dst = None

            # port negotiation fixed point (_negotiate_ports).  The
            # per-port probe values from the *converged* iteration were
            # computed at the final ``candidate``, so the reservation
            # pass below can reuse them instead of probing again —
            # unless an earlier reservation by this same instruction
            # already mutated that bank.
            candidate = start
            converged = False
            src_vals: List[list] = []
            wvals: list = []
            for _ in range(8):
                adjusted = candidate
                del src_vals[:]
                for k in range(nsrc):
                    if row_cls[k] == 2:
                        er = -1
                        vals: list[int] = []
                        for ps, pe in read_banks[row_idx[k] // regs_per_bank]:
                            if pe and candidate < pe[-1]:
                                v = gap_find(ps, pe, candidate, vl)
                            else:
                                v = candidate
                            vals.append(v)
                            if er < 0 or v < er:
                                er = v
                        src_vals.append(vals)
                        if er > adjusted:
                            adjusted = er
                if dc == 2:
                    write_start = adjusted + eff
                    ew = -1
                    del wvals[:]
                    for ps, pe in write_banks[col_dest_idx[i] // regs_per_bank]:
                        if pe and write_start < pe[-1]:
                            v = gap_find(ps, pe, write_start, vl)
                        else:
                            v = write_start
                        wvals.append(v)
                        if ew < 0 or v < ew:
                            ew = v
                    avail = ew - eff
                    if avail > adjusted:
                        adjusted = avail
                if adjusted == candidate:
                    converged = True
                    break
                candidate = adjusted
            start = candidate

            # port reservations (_reserve_ports); ties pick the first
            # port, exactly like min(ports, key=...) does
            touched: list = []
            svi = 0
            for k in range(nsrc):
                if row_cls[k] == 2:
                    bidx = row_idx[k] // regs_per_bank
                    bank = read_banks[bidx]
                    best = bank[0]
                    bs = -1
                    if converged and bidx not in touched:
                        vals = src_vals[svi]
                        for j in range(len(bank)):
                            v = vals[j]
                            if bs < 0 or v < bs:
                                bs = v
                                best = bank[j]
                    else:
                        for port in bank:
                            ps, pe = port
                            if pe and start < pe[-1]:
                                v = gap_find(ps, pe, start, vl)
                            else:
                                v = start
                            if bs < 0 or v < bs:
                                bs = v
                                best = port
                    svi += 1
                    touched.append(bidx)
                    be = bs + vl
                    ps, pe = best
                    if pe and bs < pe[-1]:
                        gap_insert(ps, pe, bs, be)
                    elif pe and pe[-1] == bs:
                        pe[-1] = be
                    else:
                        ps.append(bs)
                        pe.append(be)
            if dc == 2:
                wstart = start + eff
                bank = write_banks[col_dest_idx[i] // regs_per_bank]
                best = bank[0]
                bs = -1
                if converged:
                    for j in range(len(bank)):
                        v = wvals[j]
                        if bs < 0 or v < bs:
                            bs = v
                            best = bank[j]
                else:
                    for port in bank:
                        ps, pe = port
                        if pe and wstart < pe[-1]:
                            v = gap_find(ps, pe, wstart, vl)
                        else:
                            v = wstart
                        if bs < 0 or v < bs:
                            bs = v
                            best = port
                be = bs + vl
                ps, pe = best
                if pe and bs < pe[-1]:
                    gap_insert(ps, pe, bs, be)
                elif pe and pe[-1] == bs:
                    pe[-1] = be
                else:
                    ps.append(bs)
                    pe.append(be)

            busy_until = start + vl + vector_startup
            unit.free_at = busy_until
            if ue and ue[-1] == start:
                ue[-1] = busy_until
            else:
                us.append(start)
                ue.append(busy_until)

            first_result = start + eff
            completion = first_result + vl
            read_until = start + vl
            for k in range(nsrc):
                if row_cls[k] >= 2:
                    st = reg_state[row_ids[k]]
                    if read_until > st.read_until:
                        st.read_until = read_until
            if dst is not None:
                dst.from_load = False
                if dc >= 2:
                    dst.first_result = first_result
                else:
                    # reductions deliver their scalar result at the end
                    dst.first_result = completion
                dst.ready = completion

            issue_ready = start + 1
            if completion > horizon:
                horizon = completion
            if busy_until > horizon:
                horizon = busy_until
            if issue_ready > horizon:
                horizon = issue_ready

        elif kc in MEMORY_KINDS:
            # -- _run_vector_memory / _run_scalar_memory ----------------
            is_vec = kc == K_VECTOR_LOAD or kc == K_VECTOR_STORE
            start = issue_ready
            if is_vec:
                vl = col_vl1[i]
                if mem_unit.free_at > start:
                    start = mem_unit.free_at
            else:
                vl = 1
            row_ids = col_src_ids[i]
            first = 0
            if kc == K_VECTOR_STORE:
                # the stored value may chain from a functional unit
                vcls = col_src_cls[i][0]
                vst = reg_state[row_ids[0]]
                if vcls <= 1 or vst.from_load:
                    r = vst.ready
                else:
                    r = vst.first_result
                if r > start:
                    start = r
                first = 1
            # base address, index vector, a scalar store's value
            for k in range(first, len(row_ids)):
                st = reg_state[row_ids[k]]
                if st.ready > start:
                    start = st.ready

            # a vector load writes its bank ``mem_latency`` cycles after
            # its first address; a vector store reads its bank at once
            ports = None
            lag = 0
            if kc == K_VECTOR_LOAD:
                if col_dest_cls[i] >= 0:
                    dst = reg_state[col_dest_id[i]]
                    c = dst.ready
                    if dst.read_until > c:
                        c = dst.read_until
                    if c > start:
                        start = c
                ports = write_banks[col_dest_idx[i] // regs_per_bank]
                lag = mem_latency
            elif kc == K_VECTOR_STORE and vcls == 2:
                ports = read_banks[col_src_idx[i][0] // regs_per_bank]
            if ports is not None:
                at = start + lag
                ep = -1
                for ps, pe in ports:
                    if pe and at < pe[-1]:
                        v = gap_find(ps, pe, at, vl)
                    else:
                        v = at
                    if ep < 0 or v < ep:
                        ep = v
                if ep - lag > start:
                    start = ep - lag

            # the address bus carries one address per element
            if bus_ends and start < bus_ends[-1]:
                s = gap_find(bus_starts, bus_ends, start, vl)
            else:
                s = start
            address_done = s + vl
            if bus_ends and s < bus_ends[-1]:
                gap_insert(bus_starts, bus_ends, s, address_done)
            elif bus_ends and bus_ends[-1] == s:
                bus_ends[-1] = address_done
            else:
                bus_starts.append(s)
                bus_ends.append(address_done)

            if ports is not None:
                # reserve the bank's earliest port; ties pick the first
                at = s + lag
                best = ports[0]
                bp = -1
                for port in ports:
                    ps, pe = port
                    if pe and at < pe[-1]:
                        v = gap_find(ps, pe, at, vl)
                    else:
                        v = at
                    if bp < 0 or v < bp:
                        bp = v
                        best = port
                ps, pe = best
                if pe and bp < pe[-1]:
                    gap_insert(ps, pe, bp, bp + vl)
                elif pe and pe[-1] == bp:
                    pe[-1] = bp + vl
                else:
                    ps.append(bp)
                    pe.append(bp + vl)

            if kc == K_VECTOR_LOAD:
                data_ready = s + mem_latency + vl
                dst = reg_state[col_dest_id[i]]
                dst.from_load = True
                dst.first_result = s + mem_latency
                dst.ready = data_ready
            elif kc == K_VECTOR_STORE:
                data_ready = address_done
                if vcls == 2 and address_done > vst.read_until:
                    vst.read_until = address_done
            elif kc == K_SCALAR_LOAD:
                data_ready = s + scalar_mem
                if col_dest_cls[i] >= 0:
                    dst = reg_state[col_dest_id[i]]
                    dst.ready = data_ready
                    dst.first_result = data_ready
                    dst.from_load = True
            else:
                data_ready = address_done

            if is_vec:
                mem_unit.free_at = address_done
                if me and me[-1] == s:
                    me[-1] = address_done
                else:
                    ms.append(s)
                    me.append(address_done)
            issue_ready = s + 1
            if data_ready > horizon:
                horizon = data_ready
            if address_done > horizon:
                horizon = address_done
            if issue_ready > horizon:
                horizon = issue_ready

        elif kc == K_BRANCH:
            # -- _run_branch --------------------------------------------
            start = issue_ready
            for rid in col_src_ids[i]:
                r = reg_state[rid].ready
                if r > start:
                    start = r
            issue_ready = start + 1 + (taken_penalty if col_taken[i] else 0)
            if issue_ready > horizon:
                horizon = issue_ready

        else:
            # -- _run_scalar (SCALAR_ALU / VECTOR_CONTROL default) ------
            start = issue_ready
            for rid in col_src_ids[i]:
                r = reg_state[rid].ready
                if r > start:
                    start = r
            done = start + scalar_lat[col_lat[i]]
            if col_dest_cls[i] >= 0:
                dst = reg_state[col_dest_id[i]]
                dst.ready = done
                dst.first_result = done
                dst.from_load = False
            issue_ready = start + 1
            if done > horizon:
                horizon = done
            if issue_ready > horizon:
                horizon = issue_ready

    machine.issue_ready = issue_ready
    machine.horizon = horizon


register_stepper(_ReferenceRun, _step_reference)

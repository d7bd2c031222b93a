"""Hand-lowered batched stepper for the OOOVA and in-order machines.

This is the out-of-order counterpart of :mod:`repro.refsim.batched`: one
flat interpreter loop over the lowered trace, with every hot component
operation inlined against the component's own backing storage — the
reorder-buffer occupancy heap, the issue-queue departure heaps, the
per-class rename mapping/free-list dicts, the busy calendars of FU1,
FU2, the address bus and the vector memory unit, the scalar units' issue
slots, the memory pipeline's exit cursor and disambiguation window, and
the load-elimination tag dicts.  Every calendar is updated in place; a
vector access may fill a gap on the bus, so its memory-unit row is
inserted like a bus row, not appended.  Branch prediction and the scalar
load-elimination copy stay behind their method calls.  The components
keep only state that decides timing or that ``finalise`` reads, so the
stepper maintains nothing else, and it mirrors no statistics counter
into a local: :func:`~repro.machine.batched.run_slice_batched` adds the
slice's instruction, operation and traffic counts before it steps, the
branch arm counts a misprediction on the stats themselves, and a
load-elimination arm moves the load's traffic
(:meth:`~repro.common.stats.MemoryTraffic.eliminate_load`).

Every instruction passes through the stages of :class:`_OOORun` once, in
program order: decode (the reorder buffer, then the issue queue the
instruction routes to), the first-use mapping of its source registers,
the arm of its kind — vector ALU, memory, branch, or scalar ALU and
vector control, one per scalar handler — and retire (queue departure,
in-order commit, register release).  Each inlined sequence is a verbatim
transliteration of the scalar stages and the component methods they
call, in the same program order, so every attribute reachable from the
machine and the final :class:`~repro.common.stats.SimStats` are
bit-identical with the scalar kernel.  The in-order machine shares the
stepper: its single divergence — the program-order issue gate — is
threaded through as a flag, mirroring how
:class:`repro.machine.inorder._InOrderRun` overrides ``_issue_gate``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional

from repro.common.errors import SimulationError
from repro.common.params import CommitModel
from repro.isa.registers import RegClass
from repro.machine.batched import (
    CLS_NAMES,
    K_BRANCH,
    K_SCALAR_STORE,
    K_VECTOR_ALU,
    K_VECTOR_LOAD,
    K_VECTOR_STORE,
    MEMORY_KINDS,
    LoweredTrace,
    gap_find,
    gap_insert,
    latency_tables,
    register_stepper,
)
from repro.machine.inorder import _InOrderRun
from repro.ooo.loadelim import tag_for
from repro.ooo.machine import _OOORun
from repro.ooo.mempipe import _PendingAccess
from repro.ooo.queues import QueueKind


def _memtags(lowered: LoweredTrace) -> List[Any]:
    """Per-instruction memory tags, computed once per lowered trace.

    A tag depends only on the static access description (region, vl,
    stride), so the :func:`~repro.ooo.loadelim.tag_for` result can be
    shared across every run and configuration that replays the trace —
    :class:`~repro.ooo.loadelim.MemoryTag` is frozen and compared by
    value, so sharing one instance is indistinguishable from rebuilding.
    """
    tags = getattr(lowered, "_memtags", None)
    if tags is None:
        kinds = lowered.kind_code
        tags = [
            tag_for(dyn) if kinds[i] in MEMORY_KINDS else None
            for i, dyn in enumerate(lowered.dyns)
        ]
        lowered._memtags = tags
    return tags


def _step(machine: Any, lowered: LoweredTrace, inorder: bool) -> None:
    """Advance ``machine`` over the whole lowered sequence (one slice)."""
    params = machine.params
    lat = machine.lat
    scalar_lat, vector_lat = latency_tables(lat)
    lat_scalar_alu = lat.scalar_alu
    vector_startup = lat.vector_startup
    scalar_mem_lat = lat.scalar_mem
    mem_latency = params.memory.latency
    mispredict_penalty = params.branch_mispredict_penalty
    early_commit = params.commit_model is CommitModel.EARLY
    late_commit = not early_commit
    sle = machine.sle
    vle = machine.vle
    loadelim = machine.loadelim

    # tag tables indexed by register-class code (A, S, V, VM); mirrors
    # ``_tag_table_for`` with the loadelim-is-None guard folded in
    if loadelim is not None:
        tag_tables = (loadelim.a_tags, loadelim.s_tags, loadelim.vector_tags, None)
        le_tables = loadelim.all_tables()
        col_tag = _memtags(lowered)
    else:
        tag_tables = (None, None, None, None)
        le_tables = ()
        col_tag = ()

    # -- rename unit: per-class mapping / free-list / register backing ------
    files = machine.rename.files
    r_files = (
        files[RegClass.A],
        files[RegClass.S],
        files[RegClass.V],
        files[RegClass.VM],
    )
    r_map = tuple(f.mapping for f in r_files)
    r_free = tuple(f.free for f in r_files)
    r_regs = tuple(f.registers for f in r_files)
    r_stall_cycles = [f.allocation_stall_cycles for f in r_files]
    # refcount of live mappings per physical register: ``count > 0`` is
    # exactly ``phys in mapping.values()`` (idents are unique per file), so
    # the release check avoids scanning the mapping per retire
    r_live_lists: list[list[int]] = []
    for regs_, m_ in zip(r_regs, r_map):
        counts = [0] * len(regs_)
        for ph_ in m_.values():
            counts[ph_.ident] += 1
        r_live_lists.append(counts)
    r_live = tuple(r_live_lists)

    # -- reorder buffer ------------------------------------------------------
    rob = machine.rob
    rob_occ = rob._occupancy
    rob_entries = rob.entries
    rob_recent = rob._recent_commits
    rob_width = rob.commit_width
    rob_last_commit = rob.last_commit
    rob_stall_cycles = rob.allocation_stall_cycles

    # -- issue queues, indexed by the lowered queue code (A, S, V, M) --------
    qs = machine.queues.queues
    q_objs = (
        qs[QueueKind.A],
        qs[QueueKind.S],
        qs[QueueKind.V],
        qs[QueueKind.M],
    )
    q_deps = tuple(q._departures for q in q_objs)
    q_slots_n = tuple(q.slots for q in q_objs)
    q_fcycles = [q.full_stall_cycles for q in q_objs]

    # -- memory pipeline (disambiguation window inlined, flushed at the end) --
    mempipe = machine.mempipe
    pipe_obj = mempipe.pipe
    pipe_depth = pipe_obj.depth
    pipe_last_exit = pipe_obj.last_exit
    mp_active = mempipe._active

    # -- functional units, scalar units and the address bus ------------------
    fu1 = machine.fu1
    fu2 = machine.fu2
    f1s, f1e = fu1._starts, fu1._ends
    f2s, f2e = fu2._starts, fu2._ends
    # the vector memory unit's share of the bus: a vector access may fill a
    # gap on the bus, so its row may land before the calendar's last one
    ms, me = machine.mem_busy._starts, machine.mem_busy._ends
    a_slots = machine.a_unit._slots
    s_slots = machine.s_unit._slots
    a_width = machine.a_unit.width
    s_width = machine.s_unit.width
    bus = machine.memory.address_bus
    bs, be = bus._starts, bus._ends

    predict = machine.predictor.predict_and_update
    stats = machine.stats
    traffic = stats.traffic

    # -- machine scalars -----------------------------------------------------
    last_rename = machine.last_rename
    fetch_resume = machine.fetch_resume
    horizon = machine.horizon
    gate_ready = machine.issue_ready if inorder else 0

    # -- lowered columns -----------------------------------------------------
    col_kind = lowered.kind_code
    col_lat = lowered.lat_code
    vl1 = lowered.vl1
    col_dest_cls = lowered.dest_cls
    col_dest_idx = lowered.dest_idx
    col_src_idx = lowered.src_idx
    col_src_cls = lowered.src_cls
    col_queue = lowered.queue_code
    col_spill = lowered.is_spill
    col_fu2 = lowered.fu2_only
    col_rstart = lowered.region_start
    col_rend = lowered.region_end
    dyns = lowered.dyns
    scratch: List[Any] = [None] * (lowered.max_srcs or 1)

    for i in range(lowered.n):
        # decode: ROB allocation, then admission to the instruction's queue
        fetch = last_rename + 1
        if fetch_resume > fetch:
            fetch = fetch_resume
        granted = fetch
        while len(rob_occ) >= rob_entries:
            oldest = heappop(rob_occ)
            if oldest > granted:
                rob_stall_cycles += oldest - granted
                granted = oldest
        qc = col_queue[i]
        deps = q_deps[qc]
        slots_q = q_slots_n[qc]
        while len(deps) >= slots_q:
            nd = heappop(deps)
            if nd > granted:
                q_fcycles[qc] += nd - granted
                granted = nd
        rt = granted

        # a source register read before any write maps to a free register
        scls = col_src_cls[i]
        sidx = col_src_idx[i]
        ns = len(scls)
        for k in range(ns):
            c = scls[k]
            idx = sidx[k]
            ph = r_map[c].get(idx)
            if ph is None:
                fr = r_free[c]
                if not fr:
                    raise SimulationError(
                        f"no physical {CLS_NAMES[c]} register "
                        "available for initial mapping"
                    )
                ident = next(iter(fr))
                del fr[ident]
                ph = r_regs[c][ident]
                r_map[c][idx] = ph
                r_live[c][ident] += 1
            scratch[k] = ph

        # each arm sets r_start, completion and departure, and any
        # destination mapping the commit releases (rel_cls, rel_prev)
        rename_done = rt
        rel_prev = None
        rel_cls = 0

        kc = col_kind[i]
        if kc == K_VECTOR_ALU:  # -- _run_vector_compute -----------------
            # under VLE every vector-register instruction traverses the
            # memory pipeline (single-point vector rename, Section 6.2)
            if vle:
                earliest = rt + 1 + pipe_depth
                le1 = pipe_last_exit + 1
                if le1 > earliest:
                    earliest = le1
                pipe_last_exit = earliest
            else:
                earliest = rt + 1

            dest_ph = None
            dest_vec = False
            dc = col_dest_cls[i]
            if dc >= 0:
                didx = col_dest_idx[i]
                dest_vec = dc >= 2
                renamed_late = vle and dest_vec
                rename_at = earliest if renamed_late else rt
                m = r_map[dc]
                prev = m.get(didx)
                fr = r_free[dc]
                if not fr:
                    raise SimulationError(
                        f"free list for {CLS_NAMES[dc]} registers is empty "
                        "and nothing is pending release — increase the "
                        "physical register count"
                    )
                ident = next(iter(fr))
                avail = fr[ident]
                if avail > rename_at and not renamed_late:
                    r_stall_cycles[dc] += avail - rename_at
                del fr[ident]
                ph_d = r_regs[dc][ident]
                m[didx] = ph_d
                live = r_live[dc]
                live[ident] += 1
                if prev is not None:
                    live[prev.ident] -= 1
                avail_at = avail if avail > rename_at else rename_at
                if not renamed_late and avail_at > rename_done:
                    rename_done = avail_at
                if avail_at > earliest:
                    earliest = avail_at
                dest_ph = ph_d
                rel_cls = dc
                rel_prev = prev
                tt = tag_tables[dc]
                if tt is not None:
                    tt._tags.pop(ph_d.ident, None)

            for k in range(ns):
                ph = scratch[k]
                if scls[k] >= 2 and not ph.from_load:
                    v = ph.first_result
                else:
                    v = ph.ready
                if v > earliest:
                    earliest = v
            if inorder and gate_ready > earliest:
                earliest = gate_ready

            vl_ = vl1[i]
            duration = vl_ + vector_startup
            if col_fu2[i]:
                if f2e and earliest < f2e[-1]:
                    s = gap_find(f2s, f2e, earliest, duration)
                else:
                    s = earliest
                us, ue = f2s, f2e
            else:
                if f1e and earliest < f1e[-1]:
                    s1 = gap_find(f1s, f1e, earliest, duration)
                else:
                    s1 = earliest
                if f2e and earliest < f2e[-1]:
                    s2 = gap_find(f2s, f2e, earliest, duration)
                else:
                    s2 = earliest
                if s1 <= s2:
                    s = s1
                    us, ue = f1s, f1e
                else:
                    s = s2
                    us, ue = f2s, f2e
            e = s + duration
            if ue and s < ue[-1]:
                gap_insert(us, ue, s, e)
            elif ue and ue[-1] == s:
                ue[-1] = e
            else:
                us.append(s)
                ue.append(e)

            first_result = s + vector_lat[col_lat[i]]
            completion = first_result + vl_
            if dest_ph is not None:
                dest_ph.from_load = False
                if dest_vec:
                    dest_ph.first_result = first_result
                else:
                    # reductions deliver a scalar at the end of the operation
                    dest_ph.first_result = completion
                dest_ph.ready = completion
            r_start = s
            departure = s

        elif kc in MEMORY_KINDS:  # -- _run_memory ------------------------
            is_vec = kc == K_VECTOR_LOAD or kc == K_VECTOR_STORE
            is_store = kc == K_VECTOR_STORE or kc == K_SCALAR_STORE
            vl_ = vl1[i] if is_vec else 1
            a_ready = rt + 1
            i_ready = rt + 1
            for k in range(1 if is_store else 0, ns):
                ph = scratch[k]
                if scls[k] >= 2:
                    if ph.ready > i_ready:
                        i_ready = ph.ready
                elif ph.ready > a_ready:
                    a_ready = ph.ready
            pe = a_ready + pipe_depth
            le1 = pipe_last_exit + 1
            if le1 > pe:
                pe = le1
            pipe_last_exit = pe
            # run-time disambiguation against the pending-access window
            dep_ready = pe
            rs = col_rstart[i]
            if rs is not None:
                re_ = col_rend[i]
                if mp_active:
                    # scan only rows that could still matter; ``pe`` is
                    # monotone across memory instructions, so anything
                    # done by now is dead for every later scan too
                    new_active: list[_PendingAccess] = []
                    keep_ = new_active.append
                    for p_ in mp_active:
                        ad = p_.address_done
                        if ad <= pe:
                            continue
                        keep_(p_)
                        if ad <= dep_ready:
                            continue
                        if p_.region_start < re_ and rs < p_.region_end:
                            if is_store or p_.is_store:
                                dep_ready = ad
                    mp_active = new_active

            # the access reaches the bus unless a load is eliminated
            to_bus = True
            if is_store:
                v_ph = scratch[0]
                if scls[0] >= 2 and not v_ph.from_load:
                    v_ready = v_ph.first_result
                else:
                    v_ready = v_ph.ready
                earliest = dep_ready
                if i_ready > earliest:
                    earliest = i_ready
                if v_ready > earliest:
                    earliest = v_ready
                if late_commit:
                    # stores update memory only from the ROB head (§5)
                    if rob_last_commit > earliest:
                        earliest = rob_last_commit
            else:
                dc = col_dest_cls[i]
                if dc < 0:
                    raise AttributeError("'NoneType' object has no attribute 'cls'")
                didx = col_dest_idx[i]
                table = tag_tables[dc]
                matched_id: Optional[int] = None
                if table is not None and (vle if is_vec else sle):
                    tag = col_tag[i]
                    if tag is not None:
                        # find_exact: first value-equal tag wins
                        for pid_, tg_ in table._tags.items():
                            if tg_ == tag:
                                matched_id = pid_
                                break
                if matched_id is not None and is_vec:
                    # VLE: rename the destination straight to the match
                    matched = r_regs[2][matched_id]
                    m = r_map[2]
                    prev = m.get(didx)
                    r_free[2].pop(matched.ident, None)
                    m[didx] = matched
                    live = r_live[2]
                    live[matched.ident] += 1
                    if prev is not None:
                        live[prev.ident] -= 1
                    rel_cls = 2
                    rel_prev = prev
                    completion = pe + 1
                    if matched.ready > completion:
                        completion = matched.ready
                    loadelim.vector_loads_eliminated += 1
                    traffic.eliminate_load(True, vl_, col_spill[i])
                    r_start = pe
                    departure = pe + 1
                    to_bus = False
                else:
                    renamed_late = vle and is_vec
                    rename_at = dep_ready if renamed_late else rt
                    m = r_map[dc]
                    prev = m.get(didx)
                    fr = r_free[dc]
                    if not fr:
                        raise SimulationError(
                            f"free list for {CLS_NAMES[dc]} registers is "
                            "empty and nothing is pending release — "
                            "increase the physical register count"
                        )
                    ident = next(iter(fr))
                    avail = fr[ident]
                    if avail > rename_at and not renamed_late:
                        r_stall_cycles[dc] += avail - rename_at
                    del fr[ident]
                    ph_d = r_regs[dc][ident]
                    m[didx] = ph_d
                    live = r_live[dc]
                    live[ident] += 1
                    if prev is not None:
                        live[prev.ident] -= 1
                    avail_at = avail if avail > rename_at else rename_at
                    if not renamed_late and avail_at > rename_done:
                        rename_done = avail_at
                    rel_cls = dc
                    rel_prev = prev
                    if matched_id is not None:
                        # SLE: register-to-register copy, no memory access
                        matched = r_regs[dc][matched_id]
                        completion = pe + 1
                        if matched.ready > completion:
                            completion = matched.ready
                        ph_d.ready = completion
                        ph_d.first_result = completion
                        ph_d.from_load = False
                        table.set_tag(ph_d.ident, table.get(matched_id))
                        traffic.eliminate_load(False, 1, col_spill[i])
                        r_start = pe
                        departure = pe + 1
                        to_bus = False
                    else:
                        earliest = dep_ready
                        if i_ready > earliest:
                            earliest = i_ready
                        if avail_at > earliest:
                            earliest = avail_at

            if to_bus:
                if inorder and gate_ready > earliest:
                    earliest = gate_ready
                # the address bus carries one address per element
                if be and earliest < be[-1]:
                    s = gap_find(bs, be, earliest, vl_)
                else:
                    s = earliest
                e_addr = s + vl_
                if be and s < be[-1]:
                    gap_insert(bs, be, s, e_addr)
                elif be and be[-1] == s:
                    be[-1] = e_addr
                else:
                    bs.append(s)
                    be.append(e_addr)
                if is_vec:
                    if me and s < me[-1]:
                        gap_insert(ms, me, s, e_addr)
                    elif me and me[-1] == s:
                        me[-1] = e_addr
                    else:
                        ms.append(s)
                        me.append(e_addr)
                if rs is not None:
                    mp_active.append(_PendingAccess(rs, re_, is_store, e_addr))
                if is_store:
                    completion = e_addr
                    ttv = tag_tables[scls[0]]
                    if ttv is not None:
                        tag = col_tag[i]
                        if tag is not None:
                            # store consistency: kill every overlapping tag
                            # in all three tables, then tag the stored value
                            t_rs = tag.region_start
                            t_re = tag.region_end
                            v_pid = v_ph.ident
                            for cand in le_tables:
                                tags_d = cand._tags
                                if not tags_d:
                                    continue
                                keep = v_pid if cand is ttv else None
                                victims = [
                                    pid_
                                    for pid_, tg_ in tags_d.items()
                                    if pid_ != keep
                                    and tg_.region_start < t_re
                                    and t_rs < tg_.region_end
                                ]
                                for pid_ in victims:
                                    del tags_d[pid_]
                            ttv._tags[v_pid] = tag
                else:
                    ph_d.from_load = True
                    if is_vec:
                        ph_d.first_result = s + mem_latency
                        completion = s + mem_latency + vl_
                    else:
                        completion = s + scalar_mem_lat
                        ph_d.first_result = completion
                    ph_d.ready = completion
                    if table is not None:
                        tag = col_tag[i]
                        if tag is None:
                            table._tags.pop(ph_d.ident, None)
                        else:
                            table._tags[ph_d.ident] = tag
                r_start = s
                departure = s

        elif kc == K_BRANCH:  # -- _run_branch --------------------------
            ready = rt + 1
            for k in range(ns):
                pr = scratch[k].ready
                if pr > ready:
                    ready = pr
            if inorder and gate_ready > ready:
                ready = gate_ready
            cyc = ready
            while a_slots.get(cyc, 0) >= a_width:
                cyc += 1
            a_slots[cyc] = a_slots.get(cyc, 0) + 1
            completion = cyc + lat_scalar_alu

            if not predict(dyns[i]):
                stats.branch_mispredictions += 1
                resume = completion + mispredict_penalty
                if resume > fetch_resume:
                    fetch_resume = resume
            r_start = cyc
            departure = cyc

        else:  # -- _run_scalar: scalar ALU and vector control -----------
            dest_ph = None
            dc = col_dest_cls[i]
            if dc >= 0:
                didx = col_dest_idx[i]
                m = r_map[dc]
                prev = m.get(didx)
                fr = r_free[dc]
                if not fr:
                    raise SimulationError(
                        f"free list for {CLS_NAMES[dc]} registers is empty "
                        "and nothing is pending release — increase the "
                        "physical register count"
                    )
                ident = next(iter(fr))
                avail = fr[ident]
                if avail > rt:
                    r_stall_cycles[dc] += avail - rt
                del fr[ident]
                ph_d = r_regs[dc][ident]
                m[didx] = ph_d
                live = r_live[dc]
                live[ident] += 1
                if prev is not None:
                    live[prev.ident] -= 1
                if avail > rename_done:
                    rename_done = avail
                dest_ph = ph_d
                rel_cls = dc
                rel_prev = prev
                tt = tag_tables[dc]
                if tt is not None:
                    tt._tags.pop(ph_d.ident, None)

            ready = rename_done + 1
            for k in range(ns):
                pr = scratch[k].ready
                if pr > ready:
                    ready = pr
            if inorder and gate_ready > ready:
                ready = gate_ready
            cyc = ready
            if qc == 0:
                while a_slots.get(cyc, 0) >= a_width:
                    cyc += 1
                a_slots[cyc] = a_slots.get(cyc, 0) + 1
            else:
                while s_slots.get(cyc, 0) >= s_width:
                    cyc += 1
                s_slots[cyc] = s_slots.get(cyc, 0) + 1
            completion = cyc + scalar_lat[col_lat[i]]
            if dest_ph is not None:
                dest_ph.ready = completion
                dest_ph.first_result = completion
                dest_ph.from_load = False
            r_start = cyc
            departure = cyc

        # retire: queue departure, in-order commit, free-list release
        heappush(deps, departure)
        rtc = r_start if early_commit else completion
        if rename_done > rtc:
            rtc = rename_done
        commit = rtc if rtc > rob_last_commit else rob_last_commit
        if len(rob_recent) == rob_width:
            bw = rob_recent[0] + 1
            if bw > commit:
                commit = bw
        rob_recent.append(commit)
        rob_last_commit = commit
        heappush(rob_occ, commit)
        if rel_prev is not None:
            ident = rel_prev.ident
            if r_live[rel_cls][ident] <= 0:
                fr = r_free[rel_cls]
                old = fr.get(ident, 0)
                fr[ident] = commit if commit > old else old
        last_rename = rt if rt > rename_done else rename_done
        if completion > horizon:
            horizon = completion
        if commit > horizon:
            horizon = commit
        if departure > horizon:
            horizon = departure
        if inorder:
            nxt = r_start + 1
            if nxt > gate_ready:
                gate_ready = nxt

    # -- flush the localized state back into the components ------------------
    machine.last_rename = last_rename
    machine.fetch_resume = fetch_resume
    machine.horizon = horizon
    if inorder:
        machine.issue_ready = gate_ready
    rob.last_commit = rob_last_commit
    rob.allocation_stall_cycles = rob_stall_cycles
    for idx, q in enumerate(q_objs):
        q.full_stall_cycles = q_fcycles[idx]
    for idx, f in enumerate(r_files):
        f.allocation_stall_cycles = r_stall_cycles[idx]
    pipe_obj.last_exit = pipe_last_exit
    mempipe._active = mp_active


def _step_ooo(machine: Any, lowered: LoweredTrace) -> None:
    _step(machine, lowered, False)


def _step_inorder(machine: Any, lowered: LoweredTrace) -> None:
    _step(machine, lowered, True)


register_stepper(_OOORun, _step_ooo)
register_stepper(_InOrderRun, _step_inorder)

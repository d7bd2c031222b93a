"""Hand-lowered batched stepper for the OOOVA and in-order machines.

This is the out-of-order counterpart of :mod:`repro.refsim.batched`: one
flat interpreter loop over the lowered trace that steps one whole slice
on a fresh machine (:func:`~repro.machine.batched.run_slice_batched`
refuses any other) and leaves ``finalise`` exactly the spec's
:class:`~repro.common.stats.SimStats`.  It keeps its own state, shaped
for the loop rather than after the spec's components:

* the reorder buffer is the list of commit times: commits are monotone,
  so decode waits for ``commits[i - rob_entries]`` and the commit-width
  bound is ``commits[i - commit_width] + 1``;
* register timing is flat lists indexed by a global physical-register id
  (``ready``; ``chain``, a value's first result unless a load produced
  it; live-mapping counts) behind an architected-to-physical list indexed
  by the lowered ``src_ids``/``dest_id``.  Each class keeps its
  insertion-ordered free dict, so allocation is the spec's FIFO;
* the disambiguation window is two min-heaps of ``(address_done, start,
  end)`` rows, pending stores and pending loads.  A row done at or before
  the (monotone) pipe exit can delay no later access and is popped; a
  load scans the stores, a store scans both;
* the load-elimination tags are dicts keyed by the global id;
* the horizon is the latest completion: in every arm the queue departure
  is at or before the completion (latencies are non-negative), and the
  commits end at ``rob.last_commit``, so ``cycles`` is unchanged.

The issue queues stay departure heaps and the scalar units their slot
dicts; branch prediction stays behind the predictor's method.  The FU1,
FU2, MEM and address-bus calendars are updated in place (a vector access
may fill a gap on the bus, so its MEM row is inserted like a bus row).
After the loop the stepper writes back only what ``finalise`` reads: the
horizon, ``rob.last_commit``, the ROB, queue and rename stall counters
and the count of eliminated vector loads.  It counts no instruction,
operation or traffic: :func:`~repro.machine.batched.run_slice_batched`
adds the slice's counts before it steps, the branch arm counts a
misprediction on the stats themselves, and a load-elimination arm moves
the load's traffic (:meth:`~repro.common.stats.MemoryTraffic.eliminate_load`).

Every instruction passes through the stages of :class:`_OOORun` once, in
program order: decode (the reorder buffer, then the issue queue the
instruction routes to), the first-use mapping of its source registers,
the arm of its kind — vector ALU, memory, branch, or scalar ALU and
vector control, one per scalar handler — and retire (queue departure,
in-order commit, register release).  Inside each arm the steps keep the
spec's order.  The in-order machine shares the stepper: its single
divergence — the program-order issue gate — is threaded through as a
flag, mirroring how :class:`repro.machine.inorder._InOrderRun` overrides
``_issue_gate``.
"""

from __future__ import annotations

import weakref
from heapq import heappop, heappush, heapreplace
from typing import Any, Dict, List, Optional, Tuple

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
    NUM_REG_IDS,
    REG_ID_STRIDE,
    V_ID,
    LoweredTrace,
    gap_find,
    gap_insert,
    latency_tables,
    register_stepper,
)
from repro.machine.inorder import _InOrderRun
from repro.ooo.loadelim import MemoryTag, tag_for
from repro.ooo.machine import _OOORun
from repro.ooo.queues import QueueKind


#: what the stepper derives from a lowering once, however many runs replay
#: it: per instruction, whether it reads an architected register for the
#: first time, and its memory tag
_Derived = Tuple[List[bool], List[Optional[MemoryTag]]]
_DERIVED: "weakref.WeakKeyDictionary[LoweredTrace, _Derived]" = weakref.WeakKeyDictionary()


def _derived(lowered: LoweredTrace) -> _Derived:
    """The first-read flags and memory tags of ``lowered``, computed once.

    Only an instruction that reads a register no older instruction read
    can find it unmapped (a mapping is replaced, never dropped), so the
    loop maps sources only there.  A tag depends only on the static access
    description (region, vl, stride), so one
    :func:`~repro.ooo.loadelim.tag_for` result serves every run —
    :class:`~repro.ooo.loadelim.MemoryTag` is frozen and compared by value.
    """
    hit = _DERIVED.get(lowered)
    if hit is None:
        seen: set[int] = set()
        first_read: List[bool] = []
        for sids in lowered.src_ids:
            new = not seen.issuperset(sids)
            if new:
                seen.update(sids)
            first_read.append(new)
        kinds = lowered.kind_code
        tags = [
            tag_for(dyn) if kinds[i] in MEMORY_KINDS else None
            for i, dyn in enumerate(lowered.dyns)
        ]
        hit = _DERIVED[lowered] = (first_read, tags)
    return hit


def _no_free_register(cls: int) -> SimulationError:
    return SimulationError(
        f"free list for {CLS_NAMES[cls]} registers is empty and nothing is "
        "pending release — increase the physical register count"
    )


def _step(machine: Any, lowered: LoweredTrace, inorder: bool) -> None:
    """Step ``machine``, fresh, over the whole lowered sequence (one slice)."""
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
    n = lowered.n

    # -- physical registers: one global id space, class after class ----------
    r_files = tuple(machine.rename.files[cls] for cls in RegClass)
    # per class, its free dict (id -> cycle it is allocatable, FIFO order);
    # per global id, the free dict of its class
    free: List[Dict[int, int]] = []
    owner: List[Dict[int, int]] = []
    for f in r_files:
        base = len(owner)
        fr = dict.fromkeys(range(base, base + f.num_physical), 0)
        free.append(fr)
        owner.extend([fr] * f.num_physical)
    ready = [0] * len(owner)
    # a vector source chains from its producer's first result unless a
    # load produced it; for every other register ``chain == ready``
    chain = [0] * len(owner)
    # live mappings per register: a release waits until none is left
    live = [0] * len(owner)
    # architected id -> global physical id (-1: not mapped yet)
    amap = [-1] * NUM_REG_IDS
    r_stall = [0, 0, 0, 0]

    # load-elimination tags per class code (A, S, V, VM), by global id;
    # None where no load is eliminated
    tag_tables: Tuple[Any, ...] = (None, None, None, None)
    le_tables: Tuple[Dict[int, MemoryTag], ...] = ()
    vle_count = 0
    if loadelim is not None:
        a_tags: Dict[int, MemoryTag] = {}
        s_tags: Dict[int, MemoryTag] = {}
        v_tags: Dict[int, MemoryTag] = {}
        tag_tables = (a_tags, s_tags, v_tags, None)
        le_tables = (v_tags, a_tags, s_tags)

    # -- reorder buffer: commit time per instruction --------------------------
    rob = machine.rob
    rob_entries = rob.entries
    rob_width = rob.commit_width
    # instruction i < rob_entries (or < commit_width) reads a negative
    # index, which lands in this tail of -1s: no cycle is before 0, so
    # neither bound holds it back, as on the spec's part-full buffer
    commits = [0] * n + [-1] * max(rob_entries, rob_width)
    last_commit = 0
    rob_stall = 0

    # -- issue queues, indexed by the lowered queue code (A, S, V, M) --------
    q_objs = tuple(machine.queues.queues[kind] for kind in QueueKind)
    # departure heaps, full from the start: a -1 stands for a free slot, so
    # decode waits on the earliest departure and retire replaces it, as the
    # spec's admission pops and its departure pushes
    q_deps: Tuple[List[int], ...] = tuple([-1] * params.queue_slots for _ in q_objs)
    q_stall = [0, 0, 0, 0]

    # -- memory pipeline: exit cursor and disambiguation window ---------------
    pipe_depth = machine.mempipe.pipe.depth
    pipe_last_exit = -1
    pending_stores: List[Tuple[int, int, int]] = []
    pending_loads: List[Tuple[int, int, int]] = []

    # -- busy calendars (in place), scalar issue slots ------------------------
    f1s, f1e = machine.fu1._starts, machine.fu1._ends
    f2s, f2e = machine.fu2._starts, machine.fu2._ends
    ms, me = machine.mem_busy._starts, machine.mem_busy._ends
    bus = machine.memory.address_bus
    bs, be = bus._starts, bus._ends
    a_slots: Dict[int, int] = {}
    s_slots: Dict[int, int] = {}
    a_width = machine.a_unit.width
    s_width = machine.s_unit.width

    predict = machine.predictor.predict_and_update
    stats = machine.stats
    traffic = stats.traffic

    last_rename = -1
    fetch_resume = 0
    horizon = 0
    gate_ready = 0

    # -- lowered columns -----------------------------------------------------
    col_kind = lowered.kind_code
    col_lat = lowered.lat_code
    vl1 = lowered.vl1
    col_dest_cls = lowered.dest_cls
    col_dest_id = lowered.dest_id
    col_src_ids = lowered.src_ids
    col_queue = lowered.queue_code
    col_spill = lowered.is_spill
    col_fu2 = lowered.fu2_only
    col_rstart = lowered.region_start
    col_rend = lowered.region_end
    first_read, col_tag = _derived(lowered)
    dyns = lowered.dyns

    for i in range(n):
        # decode: ROB allocation, then admission to the instruction's queue
        rt = last_rename + 1
        if fetch_resume > rt:
            rt = fetch_resume
        oldest = commits[i - rob_entries]
        if oldest > rt:
            rob_stall += oldest - rt
            rt = oldest
        qc = col_queue[i]
        deps = q_deps[qc]
        if deps[0] > rt:
            q_stall[qc] += deps[0] - rt
            rt = deps[0]

        # a source register read before any write maps to a free register
        sids = col_src_ids[i]
        if first_read[i]:
            for sid in sids:
                if amap[sid] < 0:
                    c = sid // REG_ID_STRIDE
                    fr = free[c]
                    if not fr:
                        raise SimulationError(
                            f"no physical {CLS_NAMES[c]} register "
                            "available for initial mapping"
                        )
                    g = next(iter(fr))
                    del fr[g]
                    amap[sid] = g
                    live[g] += 1

        # each arm sets r_start, completion and departure, and the previous
        # mapping of its destination, which the commit releases (rel_prev)
        rename_done = rt
        rel_prev = -1

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
            # the sources as mapped before the destination is renamed
            src_ready = 0
            for sid in sids:
                v = chain[amap[sid]]
                if v > src_ready:
                    src_ready = v

            dc = col_dest_cls[i]
            if dc >= 0:
                renamed_late = vle and dc >= 2
                rename_at = earliest if renamed_late else rt
                fr = free[dc]
                if not fr:
                    raise _no_free_register(dc)
                g = next(iter(fr))
                avail = fr.pop(g)
                if avail > rename_at and not renamed_late:
                    r_stall[dc] += avail - rename_at
                did = col_dest_id[i]
                rel_prev = amap[did]
                amap[did] = g
                live[g] += 1
                if rel_prev >= 0:
                    live[rel_prev] -= 1
                avail_at = avail if avail > rename_at else rename_at
                if not renamed_late and avail_at > rename_done:
                    rename_done = avail_at
                if avail_at > earliest:
                    earliest = avail_at
                tt = tag_tables[dc]
                if tt is not None:
                    tt.pop(g, None)

            if src_ready > earliest:
                earliest = src_ready
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
            if dc >= 0:
                ready[g] = completion
                # reductions deliver a scalar at the end of the operation
                chain[g] = first_result if dc >= 2 else completion
            r_start = s
            departure = s

        elif kc in MEMORY_KINDS:  # -- _run_memory ------------------------
            is_vec = kc == K_VECTOR_LOAD or kc == K_VECTOR_STORE
            is_store = kc == K_VECTOR_STORE or kc == K_SCALAR_STORE
            vl_ = vl1[i] if is_vec else 1
            a_ready = rt + 1
            i_ready = rt + 1
            for k in range(1 if is_store else 0, len(sids)):
                sid = sids[k]
                v = ready[amap[sid]]
                if sid >= V_ID:
                    if v > i_ready:
                        i_ready = v
                elif v > a_ready:
                    a_ready = v
            pe = a_ready + pipe_depth
            le1 = pipe_last_exit + 1
            if le1 > pe:
                pe = le1
            pipe_last_exit = pe
            # run-time disambiguation: the pipe exit is monotone, so a row
            # done by now can delay no later access either
            dep_ready = pe
            rs = col_rstart[i]
            if rs is not None:
                re_ = col_rend[i]
                while pending_stores and pending_stores[0][0] <= pe:
                    heappop(pending_stores)
                for ad, p_s, p_e in pending_stores:
                    if ad > dep_ready and p_s < re_ and rs < p_e:
                        dep_ready = ad
                while pending_loads and pending_loads[0][0] <= pe:
                    heappop(pending_loads)
                if is_store:
                    for ad, p_s, p_e in pending_loads:
                        if ad > dep_ready and p_s < re_ and rs < p_e:
                            dep_ready = ad

            # the access reaches the bus unless a load is eliminated
            to_bus = True
            if is_store:
                v_g = amap[sids[0]]
                earliest = dep_ready
                if i_ready > earliest:
                    earliest = i_ready
                v = chain[v_g]
                if v > earliest:
                    earliest = v
                if late_commit:
                    # stores update memory only from the ROB head (§5)
                    if last_commit > earliest:
                        earliest = last_commit
            else:
                dc = col_dest_cls[i]
                if dc < 0:
                    raise AttributeError("'NoneType' object has no attribute 'cls'")
                did = col_dest_id[i]
                table = tag_tables[dc]
                matched = -1
                if table is not None and (vle if is_vec else sle):
                    tag = col_tag[i]
                    if tag is not None:
                        # find_exact: first value-equal tag wins
                        for pid_, tg_ in table.items():
                            if tg_ == tag:
                                matched = pid_
                                break
                if matched >= 0 and is_vec:
                    # VLE: rename the destination straight to the match
                    rel_prev = amap[did]
                    owner[matched].pop(matched, None)
                    amap[did] = matched
                    live[matched] += 1
                    if rel_prev >= 0:
                        live[rel_prev] -= 1
                    completion = pe + 1
                    if ready[matched] > completion:
                        completion = ready[matched]
                    vle_count += 1
                    traffic.eliminate_load(True, vl_, col_spill[i])
                    r_start = pe
                    departure = pe + 1
                    to_bus = False
                else:
                    renamed_late = vle and is_vec
                    rename_at = dep_ready if renamed_late else rt
                    fr = free[dc]
                    if not fr:
                        raise _no_free_register(dc)
                    g = next(iter(fr))
                    avail = fr.pop(g)
                    if avail > rename_at and not renamed_late:
                        r_stall[dc] += avail - rename_at
                    rel_prev = amap[did]
                    amap[did] = g
                    live[g] += 1
                    if rel_prev >= 0:
                        live[rel_prev] -= 1
                    avail_at = avail if avail > rename_at else rename_at
                    if not renamed_late and avail_at > rename_done:
                        rename_done = avail_at
                    if matched >= 0:
                        # SLE: register-to-register copy, no memory access
                        completion = pe + 1
                        if ready[matched] > completion:
                            completion = ready[matched]
                        ready[g] = completion
                        chain[g] = completion
                        table[g] = table[matched]
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
                if is_store:
                    if rs is not None:
                        heappush(pending_stores, (e_addr, rs, re_))
                    completion = e_addr
                    ttv = tag_tables[sids[0] // REG_ID_STRIDE]
                    if ttv is not None:
                        tag = col_tag[i]
                        if tag is not None:
                            # store consistency: kill every overlapping tag
                            # in all three tables, then tag the stored value
                            t_rs = tag.region_start
                            t_re = tag.region_end
                            for cand in le_tables:
                                if not cand:
                                    continue
                                keep = v_g if cand is ttv else -1
                                victims = [
                                    pid_
                                    for pid_, tg_ in cand.items()
                                    if pid_ != keep
                                    and tg_.region_start < t_re
                                    and t_rs < tg_.region_end
                                ]
                                for pid_ in victims:
                                    del cand[pid_]
                            ttv[v_g] = tag
                else:
                    if rs is not None:
                        heappush(pending_loads, (e_addr, rs, re_))
                    if is_vec:
                        completion = s + mem_latency + vl_
                    else:
                        completion = s + scalar_mem_lat
                    # loads never chain
                    ready[g] = completion
                    chain[g] = completion
                    if table is not None:
                        tag = col_tag[i]
                        if tag is None:
                            table.pop(g, None)
                        else:
                            table[g] = tag
                r_start = s
                departure = s

        elif kc == K_BRANCH:  # -- _run_branch --------------------------
            earliest = rt + 1
            for sid in sids:
                v = ready[amap[sid]]
                if v > earliest:
                    earliest = v
            if inorder and gate_ready > earliest:
                earliest = gate_ready
            cyc = earliest
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
            # the sources as mapped before the destination is renamed
            src_ready = 0
            for sid in sids:
                v = ready[amap[sid]]
                if v > src_ready:
                    src_ready = v
            dc = col_dest_cls[i]
            if dc >= 0:
                fr = free[dc]
                if not fr:
                    raise _no_free_register(dc)
                g = next(iter(fr))
                avail = fr.pop(g)
                if avail > rt:
                    r_stall[dc] += avail - rt
                    rename_done = avail
                did = col_dest_id[i]
                rel_prev = amap[did]
                amap[did] = g
                live[g] += 1
                if rel_prev >= 0:
                    live[rel_prev] -= 1
                tt = tag_tables[dc]
                if tt is not None:
                    tt.pop(g, None)

            earliest = rename_done + 1
            if src_ready > earliest:
                earliest = src_ready
            if inorder and gate_ready > earliest:
                earliest = gate_ready
            cyc = earliest
            if qc == 0:
                while a_slots.get(cyc, 0) >= a_width:
                    cyc += 1
                a_slots[cyc] = a_slots.get(cyc, 0) + 1
            else:
                while s_slots.get(cyc, 0) >= s_width:
                    cyc += 1
                s_slots[cyc] = s_slots.get(cyc, 0) + 1
            completion = cyc + scalar_lat[col_lat[i]]
            if dc >= 0:
                ready[g] = completion
                chain[g] = completion
            r_start = cyc
            departure = cyc

        # retire: queue departure, in-order commit, free-list release
        heapreplace(deps, departure)
        rtc = r_start if early_commit else completion
        if rename_done > rtc:
            rtc = rename_done
        commit = rtc if rtc > last_commit else last_commit
        bw = commits[i - rob_width] + 1
        if bw > commit:
            commit = bw
        commits[i] = commit
        last_commit = commit
        # a mapped register is on no free list, so the previous mapping,
        # once no mapping is left, rejoins its list at the commit
        if rel_prev >= 0 and live[rel_prev] <= 0:
            owner[rel_prev][rel_prev] = commit
        last_rename = rename_done
        if completion > horizon:
            horizon = completion
        if inorder:
            nxt = r_start + 1
            if nxt > gate_ready:
                gate_ready = nxt

    # -- write back what finalise reads ---------------------------------------
    machine.horizon = horizon
    rob.last_commit = last_commit
    rob.allocation_stall_cycles = rob_stall
    for q, stall in zip(q_objs, q_stall):
        q.full_stall_cycles = stall
    for f, stall in zip(r_files, r_stall):
        f.allocation_stall_cycles = stall
    if loadelim is not None:
        loadelim.vector_loads_eliminated = vle_count


def _step_ooo(machine: Any, lowered: LoweredTrace) -> None:
    _step(machine, lowered, False)


def _step_inorder(machine: Any, lowered: LoweredTrace) -> None:
    _step(machine, lowered, True)


register_stepper(_OOORun, _step_ooo)
register_stepper(_InOrderRun, _step_inorder)

"""Batched structure-of-arrays stepper for the machine kernel.

The scalar kernel (:meth:`repro.machine.core.StagedMachine.run_slice`)
pays per-instruction Python overhead at every stage: enum property chains
(``dyn.opcode.info.latency_class``), dict dispatch on the instruction
kind, context/result dataclass construction, and bound-method indirection
into every component.  None of that work depends on timing state — it is
a pure function of the instruction stream — so it can be hoisted out of
the stepping loop entirely.

This module provides the kernel side of the batched stepper:

* :func:`lowered_for` lowers a compiled trace once (memoised per trace)
  into a :class:`LoweredTrace` — a structure of arrays holding, per
  instruction, the kind code, interned latency-class code, the operand
  registers as packed ids, vector lengths, queue routing, branch
  outcome, spill flag and memory region.  The columns are plain lists:
  the interpreter loops index them one element at a time, which is
  faster on a list than on an array.
* A per-machine-class registry maps a :class:`StagedMachine` subclass to
  its hand-lowered stepper (:mod:`repro.refsim.batched`,
  :mod:`repro.ooo.batched`).  Registration is by **exact class**: a
  subclass that overrides any handler falls back to the scalar kernel
  automatically rather than silently running its parent's lowering.
* The lowering also counts what its slice alone decides — instruction
  classes, vector operations and bus traffic — from the columns it builds
  (:attr:`LoweredTrace.counts`), independently of the spec's
  :func:`repro.trace.stats.count_instructions`.
* :func:`run_slice_batched` is the entry point: it refuses a machine
  either kernel has already advanced, adds the slice's counts to the
  machine's stats and steps it, so no stepper counts them.  Machines
  without a registered lowering (e.g. ``examples/custom_machine.py``) run
  through their own ``run_slice`` unchanged, and count for themselves.
  Both registered steppers lower every instruction kind; neither calls a
  scalar handler.

Each stepper walks the lowered trace one instruction at a time, as the
scalar kernel does, and dispatches on the kind code inside its one loop.
The contract is the spec's statistics, not its state: after one stepper
call on a fresh machine, ``finalise`` returns a
:class:`~repro.common.stats.SimStats` bit-identical with what the spec's
``run_slice`` reaches on the same slice.  Each stepper keeps state of
its own and writes back only what ``finalise`` reads, so only the spec
resumes.  The equivalence battery in ``tests/test_batched_kernel.py``
pins the contract for every registered machine.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import MemoryTraffic, SimStats
from repro.isa.opcodes import InstrKind, Opcode
from repro.isa.registers import RegClass
from repro.trace.records import DynInstr, Trace

#: stable instruction-kind codes (definition order of :class:`InstrKind`)
KINDS: Tuple[InstrKind, ...] = tuple(InstrKind)
KIND_INDEX: Dict[InstrKind, int] = {kind: index for index, kind in enumerate(KINDS)}

K_SCALAR_ALU = KIND_INDEX[InstrKind.SCALAR_ALU]
K_SCALAR_LOAD = KIND_INDEX[InstrKind.SCALAR_LOAD]
K_SCALAR_STORE = KIND_INDEX[InstrKind.SCALAR_STORE]
K_BRANCH = KIND_INDEX[InstrKind.BRANCH]
K_VECTOR_ALU = KIND_INDEX[InstrKind.VECTOR_ALU]
K_VECTOR_LOAD = KIND_INDEX[InstrKind.VECTOR_LOAD]
K_VECTOR_STORE = KIND_INDEX[InstrKind.VECTOR_STORE]
K_VECTOR_CONTROL = KIND_INDEX[InstrKind.VECTOR_CONTROL]
#: the kind codes that reach the address bus
MEMORY_KINDS = frozenset(KIND_INDEX[kind] for kind in KINDS if kind.is_memory)
#: the kind codes of vector instructions (ALU and memory)
VECTOR_KINDS = frozenset(KIND_INDEX[kind] for kind in KINDS if kind.is_vector)

#: interned latency-class names, in a stable (sorted) order
LAT_CLASSES: Tuple[str, ...] = tuple(sorted({op.value.latency_class for op in Opcode}))
LAT_INDEX: Dict[str, int] = {name: index for index, name in enumerate(LAT_CLASSES)}

#: register-class codes used by the lowered operand columns
CLS_CODE: Dict[RegClass, int] = {
    RegClass.A: 0,
    RegClass.S: 1,
    RegClass.V: 2,
    RegClass.VM: 3,
}
CLS_NAMES: Tuple[str, ...] = ("A", "S", "V", "VM")

#: register ids pack (class code, index) into one int: ``code * STRIDE + index``
REG_ID_STRIDE = 256
#: the size of a table indexed by register id
NUM_REG_IDS = len(CLS_CODE) * REG_ID_STRIDE
#: the first V register id; the VM ids follow the V ids
V_ID = CLS_CODE[RegClass.V] * REG_ID_STRIDE

_SCALAR_LAT_CLASSES = ("scalar_alu", "scalar_mul", "scalar_div")

#: per-opcode static row: (kind code, latency-class code, fu2_only)
_OPCODE_ROWS: Dict[Opcode, Tuple[int, int, bool]] = {
    op: (
        KIND_INDEX[op.value.kind],
        LAT_INDEX[op.value.latency_class],
        op.value.fu2_only,
    )
    for op in Opcode
}

#: queue routing fixed by the instruction kind (-1: depends on operands);
#: mirrors :func:`repro.ooo.queues.route_queue` — queue codes are
#: 0 = A, 1 = S, 2 = V, 3 = M
_KIND_QUEUE: Tuple[int, ...] = tuple(
    3 if kind.is_memory
    else 2 if kind is InstrKind.VECTOR_ALU
    else 0 if kind in (InstrKind.BRANCH, InstrKind.VECTOR_CONTROL)
    else -1
    for kind in KINDS
)


@lru_cache(maxsize=None)
def latency_tables(lat: Any) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per-latency-class lookup tables for one (hashable) latency record.

    Returns ``(scalar, vector_effective)`` tuples indexed by the interned
    latency-class code: ``scalar[code]`` mirrors
    :meth:`StagedMachine._scalar_latency` and ``vector_effective[code]``
    mirrors :meth:`StagedMachine._vector_effective_latency`.  The tables
    are what makes the lowering parameter-independent — a
    :class:`LoweredTrace` stores class codes, never resolved cycles, so
    one lowering serves every machine configuration.
    """
    scalar = tuple(
        lat.vector_op_latency(name) if name in _SCALAR_LAT_CLASSES else lat.scalar_alu
        for name in LAT_CLASSES
    )
    vector = tuple(
        lat.read_crossbar + lat.vector_op_latency(name) + lat.write_crossbar
        for name in LAT_CLASSES
    )
    return scalar, vector


class LoweredTrace:
    """Structure-of-arrays projection of an instruction sequence.

    Every column is a plain list (operand columns hold tuples) indexed by
    instruction position.  All columns are pure functions of the
    instruction stream — no timing, no parameters — so a lowering is
    shared by every configuration and every kernel call.
    """

    def __init__(self, instructions: Sequence[DynInstr]) -> None:
        dyns: List[DynInstr] = (
            instructions if type(instructions) is list else list(instructions)
        )
        n = len(dyns)
        self.n = n
        self.dyns = dyns

        rows = _OPCODE_ROWS
        cls_code = CLS_CODE
        kind_queue = _KIND_QUEUE

        kind_code = [0] * n
        lat_code = [0] * n
        fu2_only = [False] * n
        vl = [0] * n
        dest_cls = [-1] * n
        src_ids: List[Tuple[int, ...]] = [()] * n
        dest_id = [-1] * n
        taken = [False] * n
        is_spill = [False] * n
        queue_code = [0] * n

        for i, dyn in enumerate(dyns):
            kc, lc, f2 = rows[dyn.opcode]
            kind_code[i] = kc
            lat_code[i] = lc
            fu2_only[i] = f2
            vl[i] = dyn.vl
            taken[i] = dyn.taken
            is_spill[i] = dyn.is_spill
            d = dyn.dest
            dcls = -1
            if d is not None:
                dcls = cls_code[d.cls]
                dest_cls[i] = dcls
                dest_id[i] = dcls * REG_ID_STRIDE + d.index
            s = dyn.srcs
            scls: Tuple[int, ...] = ()
            if s:
                scls = tuple(cls_code[r.cls] for r in s)
                src_ids[i] = tuple(
                    c * REG_ID_STRIDE + r.index for c, r in zip(scls, s)
                )
            q = kind_queue[kc]
            if q < 0:
                # scalar ALU: address arithmetic runs in the A unit
                q = 0 if (dcls == 0 or 0 in scls) else 1
            queue_code[i] = q

        self.kind_code = kind_code
        self.lat_code = lat_code
        self.fu2_only = fu2_only
        self.dest_cls = dest_cls
        self.src_ids = src_ids
        self.dest_id = dest_id
        self.taken = taken
        self.is_spill = is_spill
        self.queue_code = queue_code
        #: memory range ``[start, end)`` per instruction (``None``: no access;
        #: a range may start below address 0)
        self.region_start = [dyn.region_start for dyn in dyns]
        self.region_end = [dyn.region_end for dyn in dyns]

        #: vector lengths clamped to one element
        self.vl1 = [v if v > 1 else 1 for v in vl]
        #: what the slice alone decides, added to a run's stats before it steps
        self.counts = _column_counts(kind_code, vl, self.vl1, is_spill)


def _column_counts(
    kind_code: List[int], vl: List[int], vl1: List[int], is_spill: List[bool]
) -> SimStats:
    """Count a lowered slice's instructions, operations and bus traffic.

    Per kind code: instructions and, for vector kinds, vector lengths and
    ``max(vl, 1)`` bus operations (a scalar access puts one on the bus);
    a spill access counts its bus operations in the spill share too.
    """
    size = len(KINDS)
    n, elements, ops, spill_ops = [0] * size, [0] * size, [0] * size, [0] * size
    vector = VECTOR_KINDS
    for k, v, v1, spill in zip(kind_code, vl, vl1, is_spill, strict=True):
        n[k] += 1
        if k in vector:
            elements[k] += v
            ops[k] += v1
            if spill:
                spill_ops[k] += v1
        elif spill:
            spill_ops[k] += 1
    traffic = MemoryTraffic()
    for k in MEMORY_KINDS:
        name = KINDS[k].value  # "vector_load", ...: the counters' prefix
        setattr(traffic, f"{name}_ops", ops[k] if k in vector else n[k])
        setattr(traffic, f"{name}_spill_ops", spill_ops[k])
    vector_instructions = sum(n[k] for k in vector)
    return SimStats(
        scalar_instructions=len(kind_code) - n[K_BRANCH] - vector_instructions,
        vector_instructions=vector_instructions,
        branch_instructions=n[K_BRANCH],
        vector_operations=sum(elements[k] for k in vector),
        traffic=traffic,
    )


#: id(trace) -> (weak ref keeping the entry honest, lowering); traces are
#: not hashable (mutable dataclass), so the cache is keyed by identity and
#: evicted by the weak-reference callback when the trace dies
_LOWERED_CACHE: Dict[int, Tuple["weakref.ref[Trace]", LoweredTrace]] = {}


def lowered_for(trace: Trace) -> LoweredTrace:
    """The memoised lowering of a :class:`Trace` (lowered at most once).

    A stale entry (the trace grew after lowering, or a new object reuses
    a dead trace's id) is detected and re-lowered.
    """
    # cache key only: a stale or reused id is caught by the weakref and
    # length guard below, and the lowering is a pure function of the trace
    key = id(trace)
    hit = _LOWERED_CACHE.get(key)
    if hit is not None:
        ref, lowered = hit
        if ref() is trace and lowered.n == len(trace.instructions):
            return lowered
    lowered = LoweredTrace(trace.instructions)
    ref = weakref.ref(trace, lambda _r, _k=key: _LOWERED_CACHE.pop(_k, None))
    _LOWERED_CACHE[key] = (ref, lowered)
    return lowered


# ---------------------------------------------------------------------------
# flattened calendar operations
# ---------------------------------------------------------------------------
#
# The steppers manipulate each :class:`~repro.common.intervals.BusyCalendar`'s
# ``_starts``/``_ends`` lists in place through these two helpers — the exact
# ``GapResource._find_start`` and ``BusyCalendar.add`` algorithms (without
# ``add``'s argument checks), minus the per-call attribute and method
# dispatch.  Identity of the list objects is preserved, and the calendar is
# the resource's only busy record, so ``finalise`` reads the same calendar
# rows whichever kernel stepped.


def gap_find(starts: List[int], ends: List[int], earliest: int, duration: int) -> int:
    """Where ``GapResource.reserve`` would place the request (no mutation)."""
    idx = bisect_left(ends, earliest)
    if idx > 0:
        idx -= 1
    candidate = earliest
    fit = candidate + duration
    for i in range(idx, len(starts)):
        if starts[i] >= fit:
            break
        e = ends[i]
        if e > candidate:
            candidate = e
            fit = candidate + duration
    return candidate


def gap_insert(starts: List[int], ends: List[int], start: int, end: int) -> None:
    """Insert ``[start, end)`` into a calendar, merging rows it touches."""
    idx = bisect_left(starts, start)
    if idx > 0 and ends[idx - 1] == start:
        ends[idx - 1] = end
        if idx < len(starts) and starts[idx] == end:
            ends[idx - 1] = ends[idx]
            del starts[idx]
            del ends[idx]
        return
    if idx < len(starts) and starts[idx] == end:
        starts[idx] = start
        return
    starts.insert(idx, start)
    ends.insert(idx, end)


# ---------------------------------------------------------------------------
# stepper registry
# ---------------------------------------------------------------------------

#: a stepper advances ``machine`` over the whole ``lowered`` sequence
Stepper = Callable[[Any, LoweredTrace], None]

_STEPPERS: Dict[type, Stepper] = {}
_BUILTIN_LOADED = False


def register_stepper(machine_cls: type, stepper: Stepper) -> None:
    """Register the batched stepper for one **exact** machine class.

    Exactness is a safety property: a subclass that overrides a handler
    (or ``decode``/``retire``) must not inherit its parent's lowering, so
    unregistered subclasses fall back to the scalar kernel.
    """
    _STEPPERS[machine_cls] = stepper


def _ensure_builtin() -> None:
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    # the built-in lowerings self-register on import
    import repro.ooo.batched  # noqa: F401
    import repro.refsim.batched  # noqa: F401


def stepper_for(machine_cls: type) -> Optional[Stepper]:
    """The registered stepper for ``machine_cls`` (exact match), or ``None``."""
    _ensure_builtin()
    return _STEPPERS.get(machine_cls)


def has_lowering(machine: Any) -> bool:
    """True when ``machine`` runs through a registered batched stepper."""
    return stepper_for(type(machine)) is not None


def run_slice_batched(machine: Any, instructions: Iterable[DynInstr]) -> None:
    """Step ``instructions`` as one whole slice on a fresh ``machine``.

    Afterwards ``machine.finalise()`` returns exactly the
    :class:`~repro.common.stats.SimStats` the spec's
    :meth:`StagedMachine.run_slice` reaches on the same slice; the rest of
    the machine's state is the stepper's business.  A machine either
    kernel has already advanced is refused with
    :class:`~repro.common.errors.SimulationError`: only the spec resumes.
    Machines without a registered lowering run through their own
    ``run_slice`` unchanged (the pure fallback, exercised by
    ``examples/custom_machine.py``); :class:`Trace` inputs reuse the
    memoised lowering, any other iterable is lowered on the fly.
    """
    stepper = stepper_for(type(machine))
    if stepper is None:
        machine.run_slice(instructions)
        return
    stats = machine.stats
    # both kernels count a slice before they step it, so an advanced
    # machine has counted at least one instruction
    if stats.scalar_instructions or stats.vector_instructions or stats.branch_instructions:
        raise SimulationError(
            f"the {machine.KIND!r} stepper runs one slice on a fresh machine; "
            "this one has already stepped (resume on the spec's run_slice)"
        )
    if isinstance(instructions, Trace):
        lowered = lowered_for(instructions)
    else:
        instrs = instructions if type(instructions) is list else list(instructions)
        if not instrs:
            return
        lowered = LoweredTrace(instrs)
    if lowered.n == 0:
        return
    stats.add_counts(lowered.counts)
    stepper(machine, lowered)

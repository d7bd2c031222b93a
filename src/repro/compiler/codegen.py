"""Code generation: lower the kernel IR to virtual-register vector code.

The generator produces :class:`VBlock` basic blocks containing
:class:`VInstr` instructions whose operands are *virtual* registers
(unbounded per class).  Register allocation (``repro.compiler.regalloc``)
later maps them onto the 8 architected registers of each class, inserting
spill code where pressure is too high.

Lowering strategy
-----------------

* Every :class:`~repro.compiler.ir.VectorLoop` is strip-mined into a real
  loop: a preheader sets up an element counter and one base-address register
  per distinct array reference, the body sets the vector length with
  ``setvl`` (clamped to the loop's ``max_vl``), evaluates the vector
  statements, advances the base registers and branches back while elements
  remain.
* Identical array loads inside one loop body are CSEd, so redundant memory
  traffic in the final program comes from register spilling and from
  repeated outer-loop iterations — the two sources the paper studies.
* Outer :class:`~repro.compiler.ir.Loop` items become counted scalar loops;
  :class:`~repro.compiler.ir.CallRoutine` items become ``call``/``ret``
  pairs, exercising the return-address stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.common.errors import CompilationError
from repro.compiler import ir
from repro.isa.instructions import ELEMENT_BYTES
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegClass, Register, areg, vmreg

#: architected A register reserved as the spill-area base pointer
SPILL_BASE_REGISTER = areg(7)

#: default base address of the data segment (arrays are laid out from here)
DATA_SEGMENT_BASE = 0x1_0000

#: alignment, in bytes, of every array and of the spill area
ARRAY_ALIGNMENT = 64


@dataclass(frozen=True)
class VirtReg:
    """A virtual (pre-allocation) register of a given class."""

    cls: RegClass
    index: int

    def __str__(self) -> str:
        return f"{self.cls.value}.t{self.index}"


RegLike = Union[Register, VirtReg]


@dataclass
class VInstr:
    """An instruction whose operands may still be virtual registers."""

    opcode: Opcode
    dest: Optional[RegLike] = None
    srcs: tuple[RegLike, ...] = ()
    imm: Optional[int] = None
    cond: Optional[str] = None
    target: Optional[str] = None
    is_spill: bool = False
    region_bytes: Optional[int] = None
    comment: str = ""

    def registers(self) -> tuple[RegLike, ...]:
        regs = list(self.srcs)
        if self.dest is not None:
            regs.append(self.dest)
        return tuple(regs)


@dataclass
class VBlock:
    """A basic block of virtual-register instructions."""

    label: str
    depth: int = 0
    instructions: list[VInstr] = field(default_factory=list)

    def append(self, instr: VInstr) -> VInstr:
        self.instructions.append(instr)
        return instr


@dataclass
class MemoryLayout:
    """Byte addresses assigned to arrays, plus the spill area."""

    array_bases: dict[int, int] = field(default_factory=dict)
    spill_base: int = 0
    _next_spill_offset: int = 0

    def base_of(self, array: ir.Array) -> int:
        try:
            return self.array_bases[array.uid]
        except KeyError as exc:
            raise CompilationError(f"array {array.name!r} was never laid out") from exc

    def allocate_spill_slot(self, size_bytes: int) -> int:
        """Reserve a spill slot and return its offset from the spill base."""
        offset = self._next_spill_offset
        self._next_spill_offset += _align(size_bytes, ELEMENT_BYTES)
        return offset


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def layout_memory(arrays: list[ir.Array], extra_arrays: list[ir.Array] | None = None,
                  base: int = DATA_SEGMENT_BASE) -> MemoryLayout:
    """Assign a base address to every array and position the spill area."""
    layout = MemoryLayout()
    cursor = base
    for array in list(arrays) + list(extra_arrays or []):
        if array.uid in layout.array_bases:
            continue
        layout.array_bases[array.uid] = cursor
        cursor = _align(cursor + array.bytes, ARRAY_ALIGNMENT)
    layout.spill_base = cursor
    return layout


@dataclass
class GeneratedCode:
    """The output of code generation, consumed by register allocation."""

    name: str
    blocks: list[VBlock]
    layout: MemoryLayout
    #: number of virtual registers created per class (for diagnostics)
    virtual_counts: dict[RegClass, int]


class _RegFactory:
    """Hands out fresh virtual registers per class."""

    def __init__(self) -> None:
        self._counters = {cls: itertools.count() for cls in RegClass}
        self.created: dict[RegClass, int] = {cls: 0 for cls in RegClass}

    def new(self, cls: RegClass) -> VirtReg:
        self.created[cls] += 1
        return VirtReg(cls, next(self._counters[cls]))


class CodeGenerator:
    """Lowers a :class:`~repro.compiler.ir.Kernel` to virtual-register code."""

    def __init__(self, kernel: ir.Kernel) -> None:
        self.kernel = kernel
        self.regs = _RegFactory()
        self.blocks: list[VBlock] = []
        self._label_counter = itertools.count()
        self._scalar_footprints: list[ir.Array] = []
        self._scalar_const_cache: dict[float, VirtReg] = {}
        self._scalar_operand_cache: dict[str, VirtReg] = {}
        self._reduce_accumulators: dict[str, VirtReg] = {}
        self._routines_emitted: dict[str, str] = {}
        self._pending_routines: list[ir.Routine] = []
        self._current_block: VBlock | None = None
        self._current_depth = 0
        self._current_vs: Optional[int] = None
        self.layout = self._build_layout()

    # -- public entry point ---------------------------------------------------

    def generate(self) -> GeneratedCode:
        """Lower the whole kernel and return the generated code."""
        entry = self._new_block("entry", depth=0)
        self._current_block = entry
        # The spill-area pointer is set up before anything else.
        self._emit(VInstr(Opcode.LI, dest=SPILL_BASE_REGISTER, imm=self.layout.spill_base,
                          comment="spill area base"))

        for item in self.kernel.items:
            self._gen_item(item, depth=0)

        # End the main program explicitly so routine bodies placed after it
        # are only reachable through calls.
        self._emit(VInstr(Opcode.RET, comment="end of program"))
        self._emit_pending_routines()

        return GeneratedCode(
            name=self.kernel.name,
            blocks=self.blocks,
            layout=self.layout,
            virtual_counts=dict(self.regs.created),
        )

    # -- layout ---------------------------------------------------------------

    def _build_layout(self) -> MemoryLayout:
        arrays = self.kernel.arrays()
        footprints: list[ir.Array] = []
        for item in self._walk_items(self.kernel.items):
            if isinstance(item, ir.ScalarWork):
                footprint = ir.Array(f"__scalar_{item.name}", max(item.footprint, 1))
                footprints.append(footprint)
                self._scalar_footprints.append(footprint)
        return layout_memory(arrays, footprints)

    def _walk_items(self, items) -> list[ir.KernelItem]:
        found: list[ir.KernelItem] = []
        for item in items:
            found.append(item)
            if isinstance(item, ir.Loop):
                found.extend(self._walk_items(item.body))
            elif isinstance(item, ir.CallRoutine):
                found.extend(self._walk_items(item.routine.body))
        return found

    # -- block / emission helpers ----------------------------------------------

    def _new_label(self, hint: str) -> str:
        return f"{hint}_{next(self._label_counter)}"

    def _new_block(self, hint: str, depth: int) -> VBlock:
        block = VBlock(self._new_label(hint), depth=depth)
        self.blocks.append(block)
        return block

    def _start_block(self, hint: str, depth: int) -> VBlock:
        block = self._new_block(hint, depth)
        self._current_block = block
        self._current_depth = depth
        self._current_vs = None
        return block

    def _emit(self, instr: VInstr) -> VInstr:
        if self._current_block is None:  # pragma: no cover - internal invariant
            raise CompilationError("no current block to emit into")
        return self._current_block.append(instr)

    # -- kernel items -----------------------------------------------------------

    def _gen_item(self, item: ir.KernelItem, depth: int) -> None:
        if isinstance(item, ir.VectorLoop):
            self._gen_vector_loop(item, depth)
        elif isinstance(item, ir.ScalarWork):
            self._gen_scalar_work(item)
        elif isinstance(item, ir.Loop):
            self._gen_loop(item, depth)
        elif isinstance(item, ir.CallRoutine):
            self._gen_call(item, depth)
        else:  # pragma: no cover - exhaustive over the IR
            raise CompilationError(f"unknown kernel item {item!r}")

    def _gen_loop(self, loop: ir.Loop, depth: int) -> None:
        counter = self.regs.new(RegClass.A)
        self._emit(VInstr(Opcode.LI, dest=counter, imm=loop.count,
                          comment=f"{loop.name} iterations"))
        body = self._start_block(f"{loop.name}_body", depth + 1)
        for item in loop.body:
            self._gen_item(item, depth + 1)
        self._emit(VInstr(Opcode.SUB, dest=counter, srcs=(counter,), imm=1))
        self._emit(VInstr(Opcode.BR, srcs=(counter,), cond="gt", imm=0, target=body.label,
                          comment=f"{loop.name} back-edge"))
        self._start_block(f"{loop.name}_exit", depth)

    def _gen_call(self, call: ir.CallRoutine, depth: int) -> None:
        routine = call.routine
        if routine.name not in self._routines_emitted:
            entry_label = self._new_label(f"routine_{routine.name}")
            self._routines_emitted[routine.name] = entry_label
            self._pending_routines.append(routine)
        self._emit(VInstr(Opcode.CALL, target=self._routines_emitted[routine.name],
                          comment=f"call {routine.name}"))
        self._start_block("after_call", depth)

    def _emit_pending_routines(self) -> None:
        while self._pending_routines:
            routine = self._pending_routines.pop(0)
            entry_label = self._routines_emitted[routine.name]
            block = VBlock(entry_label, depth=1)
            self.blocks.append(block)
            self._current_block = block
            self._current_depth = 1
            self._current_vs = None
            for item in routine.body:
                self._gen_item(item, depth=1)
            self._emit(VInstr(Opcode.RET, comment=f"return from {routine.name}"))

    def _gen_scalar_work(self, work: ir.ScalarWork) -> None:
        footprint = self._scalar_footprints.pop(0) if self._scalar_footprints else None
        if footprint is None:  # pragma: no cover - layout always pre-registers one
            raise CompilationError(f"no footprint array recorded for {work.name!r}")
        base = self.regs.new(RegClass.A)
        self._emit(VInstr(Opcode.LI, dest=base, imm=self.layout.base_of(footprint),
                          comment=f"{work.name} scalar data"))
        values = [self.regs.new(RegClass.S) for _ in range(min(4, max(1, work.loads or 1)))]
        for reg in values:
            self._emit(VInstr(Opcode.LI, dest=reg, imm=1))

        slots = footprint.elements
        for i in range(work.loads):
            target = values[i % len(values)]
            self._emit(VInstr(Opcode.LOAD, dest=target, srcs=(base,),
                              imm=(i % slots) * ELEMENT_BYTES))
        for i in range(work.alu_ops):
            lhs = values[i % len(values)]
            rhs = values[(i + 1) % len(values)]
            self._emit(VInstr(Opcode.FADD, dest=lhs, srcs=(lhs, rhs)))
        for i in range(work.mul_ops):
            lhs = values[i % len(values)]
            rhs = values[(i + 1) % len(values)]
            self._emit(VInstr(Opcode.FMUL, dest=lhs, srcs=(lhs, rhs)))
        for i in range(work.stores):
            value = values[i % len(values)]
            self._emit(VInstr(Opcode.STORE, srcs=(value, base),
                              imm=(i % slots) * ELEMENT_BYTES))

    # -- vector loops -------------------------------------------------------------

    def _gen_vector_loop(self, loop: ir.VectorLoop, depth: int) -> None:
        refs = self._collect_loop_refs(loop)
        chunk = min(loop.max_vl, 128)

        counter = self.regs.new(RegClass.A)
        self._emit(VInstr(Opcode.LI, dest=counter, imm=loop.trip,
                          comment=f"{loop.name} elements"))
        # One base register per (array, stride); constant element offsets are
        # folded into the memory instruction's immediate field, exactly as a
        # real compiler would, which keeps address-register pressure low.
        base_regs: dict[tuple[int, int], VirtReg] = {}
        fixed_base_regs: dict[int, VirtReg] = {}
        for key, (array, stride) in refs["moving"].items():
            reg = self.regs.new(RegClass.A)
            base_regs[key] = reg
            self._emit(VInstr(Opcode.LI, dest=reg, imm=self.layout.base_of(array),
                              comment=f"&{array.name} (stride {stride})"))
        for uid, array in refs["fixed"].items():
            reg = self.regs.new(RegClass.A)
            fixed_base_regs[uid] = reg
            self._emit(VInstr(Opcode.LI, dest=reg, imm=self.layout.base_of(array),
                              comment=f"&{array.name} (indexed)"))

        body = self._start_block(f"{loop.name}_strip", depth + 1)
        self._emit(VInstr(Opcode.SETVL, srcs=(counter,), imm=chunk))

        context = _LoopContext(
            generator=self,
            base_regs=base_regs,
            fixed_base_regs=fixed_base_regs,
            load_cse={},
        )
        for stmt in loop.statements:
            if isinstance(stmt, ir.VectorAssign):
                context.gen_assign(stmt)
            elif isinstance(stmt, ir.Reduce):
                context.gen_reduce(stmt)
            else:  # pragma: no cover - exhaustive over the IR
                raise CompilationError(f"unknown vector statement {stmt!r}")

        for key, (array, stride) in refs["moving"].items():
            advance = chunk * stride * ELEMENT_BYTES
            self._emit(VInstr(Opcode.ADD, dest=base_regs[key], srcs=(base_regs[key],),
                              imm=advance, comment=f"advance &{array.name}"))
        self._emit(VInstr(Opcode.SUB, dest=counter, srcs=(counter,), imm=chunk))
        self._emit(VInstr(Opcode.BR, srcs=(counter,), cond="gt", imm=0, target=body.label,
                          comment=f"{loop.name} strip-mine back-edge"))
        self._start_block(f"{loop.name}_exit", depth)

    def _collect_loop_refs(self, loop: ir.VectorLoop) -> dict[str, dict]:
        """Collect array references: 'moving' bases advance with the loop,
        'fixed' bases are targets of gather/scatter (indexed) accesses."""
        moving: dict[tuple[int, int], tuple[ir.Array, int]] = {}
        fixed: dict[int, ir.Array] = {}

        def visit_expr(expr: ir.Expr) -> None:
            if isinstance(expr, ir.ArrayRef):
                moving.setdefault((expr.array.uid, expr.stride),
                                  (expr.array, expr.stride))
            elif isinstance(expr, ir.GatherRef):
                fixed.setdefault(expr.array.uid, expr.array)
                visit_expr(expr.index)
            elif isinstance(expr, ir.BinOp):
                visit_expr(expr.lhs)
                visit_expr(expr.rhs)
            elif isinstance(expr, ir.UnaryOp):
                visit_expr(expr.operand)
            elif isinstance(expr, ir.Compare):
                visit_expr(expr.lhs)
                visit_expr(expr.rhs)
            elif isinstance(expr, ir.Select):
                visit_expr(expr.cond)
                visit_expr(expr.if_true)
                visit_expr(expr.if_false)

        for stmt in loop.statements:
            if isinstance(stmt, ir.VectorAssign):
                if isinstance(stmt.target, ir.GatherRef):
                    fixed.setdefault(stmt.target.array.uid, stmt.target.array)
                    visit_expr(stmt.target.index)
                else:
                    moving.setdefault(
                        (stmt.target.array.uid, stmt.target.stride),
                        (stmt.target.array, stmt.target.stride),
                    )
                visit_expr(stmt.expr)
            else:
                visit_expr(stmt.expr)
        return {"moving": moving, "fixed": fixed}

    # -- scalar operand materialisation ------------------------------------------

    def scalar_constant(self, value: float) -> VirtReg:
        """Return a virtual S register holding ``value`` (materialised once)."""
        if value not in self._scalar_const_cache:
            reg = self.regs.new(RegClass.S)
            self._scalar_const_cache[value] = reg
            self._emit(VInstr(Opcode.LI, dest=reg, imm=value, comment=f"const {value}"))
        return self._scalar_const_cache[value]

    def scalar_operand(self, operand: ir.ScalarOperand) -> VirtReg:
        if operand.name not in self._scalar_operand_cache:
            reg = self.regs.new(RegClass.S)
            self._scalar_operand_cache[operand.name] = reg
            self._emit(VInstr(Opcode.LI, dest=reg, imm=operand.value,
                              comment=f"scalar {operand.name}"))
        return self._scalar_operand_cache[operand.name]

    def reduce_accumulator(self, name: str) -> VirtReg:
        if name not in self._reduce_accumulators:
            reg = self.regs.new(RegClass.S)
            self._reduce_accumulators[name] = reg
            self._emit(VInstr(Opcode.LI, dest=reg, imm=0, comment=f"accumulator {name}"))
        return self._reduce_accumulators[name]

    def set_vector_stride(self, stride_bytes: int) -> None:
        """Emit ``setvs`` when the required stride differs from the current one."""
        if self._current_vs != stride_bytes:
            self._emit(VInstr(Opcode.SETVS, imm=stride_bytes))
            self._current_vs = stride_bytes


_BINOP_VV = {
    "+": Opcode.VADD,
    "-": Opcode.VSUB,
    "*": Opcode.VMUL,
    "/": Opcode.VDIV,
    "min": Opcode.VMIN,
    "max": Opcode.VMAX,
}

#: binary operations that have a fused vector-scalar form
_BINOP_VS = {"+": Opcode.VSADD, "*": Opcode.VSMUL}


@dataclass
class _LoopContext:
    """Per-strip-mine-body state: CSE table and base-register bindings."""

    generator: CodeGenerator
    base_regs: dict[tuple[int, int, int], VirtReg]
    fixed_base_regs: dict[int, VirtReg]
    load_cse: dict[tuple[int, int, int], VirtReg]

    # -- statements ---------------------------------------------------------

    def gen_assign(self, stmt: ir.VectorAssign) -> None:
        value = self.eval_vector(stmt.expr)
        gen = self.generator
        if isinstance(stmt.target, ir.GatherRef):
            index = self.eval_vector(stmt.target.index)
            base = self.fixed_base_regs[stmt.target.array.uid]
            gen._emit(VInstr(Opcode.VSCATTER, srcs=(value, base, index),
                             region_bytes=stmt.target.array.bytes))
        else:
            target = stmt.target
            base = self.base_regs[(target.array.uid, target.stride)]
            offset_bytes = target.offset * ELEMENT_BYTES or None
            if target.stride == 1:
                gen._emit(VInstr(Opcode.VSTORE, srcs=(value, base), imm=offset_bytes))
            else:
                gen.set_vector_stride(target.stride * ELEMENT_BYTES)
                gen._emit(VInstr(Opcode.VSTORES, srcs=(value, base), imm=offset_bytes))
            # The stored value now lives in memory; later loads of the same
            # region in this body would be stale under CSE only if the loop
            # had loaded it before, which the IR forbids (single assignment
            # per region per body).  Invalidate defensively anyway.
            self.load_cse.pop((target.array.uid, target.offset, target.stride), None)

    def gen_reduce(self, stmt: ir.Reduce) -> None:
        value = self.eval_vector(stmt.expr)
        gen = self.generator
        partial = gen.regs.new(RegClass.S)
        accumulator = gen.reduce_accumulator(stmt.name)
        gen._emit(VInstr(Opcode.VSUM, dest=partial, srcs=(value,)))
        gen._emit(VInstr(Opcode.FADD, dest=accumulator, srcs=(accumulator, partial)))

    # -- expressions --------------------------------------------------------

    def eval_vector(self, expr: ir.Expr) -> VirtReg:
        """Evaluate ``expr`` into a virtual V register."""
        gen = self.generator
        if isinstance(expr, ir.ArrayRef):
            return self._load(expr)
        if isinstance(expr, ir.GatherRef):
            index = self.eval_vector(expr.index)
            base = self.fixed_base_regs[expr.array.uid]
            dest = gen.regs.new(RegClass.V)
            gen._emit(VInstr(Opcode.VGATHER, dest=dest, srcs=(base, index),
                             region_bytes=expr.array.bytes))
            return dest
        if isinstance(expr, (ir.Const, ir.ScalarOperand)):
            return self._broadcast(expr)
        if isinstance(expr, ir.BinOp):
            return self._binop(expr)
        if isinstance(expr, ir.UnaryOp):
            return self._unaryop(expr)
        if isinstance(expr, ir.Select):
            return self._select(expr)
        if isinstance(expr, ir.Compare):
            raise CompilationError("a bare comparison has no vector value; use where()")
        raise CompilationError(f"cannot evaluate vector expression {expr!r}")

    def _scalar_reg(self, expr: ir.Expr) -> VirtReg | None:
        """Return an S register when ``expr`` is a scalar operand, else None."""
        if isinstance(expr, ir.Const):
            return self.generator.scalar_constant(expr.value)
        if isinstance(expr, ir.ScalarOperand):
            return self.generator.scalar_operand(expr)
        return None

    def _broadcast(self, expr: ir.Expr) -> VirtReg:
        scalar = self._scalar_reg(expr)
        if scalar is None:  # pragma: no cover - callers guarantee scalar input
            raise CompilationError(f"cannot broadcast {expr!r}")
        gen = self.generator
        dest = gen.regs.new(RegClass.V)
        gen._emit(VInstr(Opcode.VBCAST, dest=dest, srcs=(scalar,)))
        return dest

    def _load(self, ref: ir.ArrayRef) -> VirtReg:
        key = (ref.array.uid, ref.offset, ref.stride)
        if key in self.load_cse:
            return self.load_cse[key]
        gen = self.generator
        base = self.base_regs[(ref.array.uid, ref.stride)]
        offset_bytes = ref.offset * ELEMENT_BYTES or None
        dest = gen.regs.new(RegClass.V)
        if ref.stride == 1:
            gen._emit(VInstr(Opcode.VLOAD, dest=dest, srcs=(base,), imm=offset_bytes))
        else:
            gen.set_vector_stride(ref.stride * ELEMENT_BYTES)
            gen._emit(VInstr(Opcode.VLOADS, dest=dest, srcs=(base,), imm=offset_bytes))
        self.load_cse[key] = dest
        return dest

    def _binop(self, expr: ir.BinOp) -> VirtReg:
        gen = self.generator
        lhs_scalar = self._scalar_reg(expr.lhs)
        rhs_scalar = self._scalar_reg(expr.rhs)

        if lhs_scalar is not None and rhs_scalar is not None:
            # Scalar-scalar arithmetic folded through a broadcast of the left
            # operand; rare in practice (workloads fold constants themselves).
            lhs_vec = self._broadcast(expr.lhs)
            rhs = rhs_scalar
            return self._emit_vs(expr.op, lhs_vec, rhs)

        if rhs_scalar is not None:
            lhs_vec = self.eval_vector(expr.lhs)
            return self._emit_vs(expr.op, lhs_vec, rhs_scalar)
        if lhs_scalar is not None and expr.op in ("+", "*"):
            rhs_vec = self.eval_vector(expr.rhs)
            return self._emit_vs(expr.op, rhs_vec, lhs_scalar)
        if lhs_scalar is not None:
            lhs_vec = self._broadcast(expr.lhs)
            rhs_vec = self.eval_vector(expr.rhs)
            return self._emit_vv(expr.op, lhs_vec, rhs_vec)

        lhs_vec = self.eval_vector(expr.lhs)
        rhs_vec = self.eval_vector(expr.rhs)
        return self._emit_vv(expr.op, lhs_vec, rhs_vec)

    def _emit_vs(self, op: str, vector: VirtReg, scalar: VirtReg) -> VirtReg:
        gen = self.generator
        dest = gen.regs.new(RegClass.V)
        if op in _BINOP_VS:
            gen._emit(VInstr(_BINOP_VS[op], dest=dest, srcs=(vector, scalar)))
            return dest
        broadcast = gen.regs.new(RegClass.V)
        gen._emit(VInstr(Opcode.VBCAST, dest=broadcast, srcs=(scalar,)))
        gen._emit(VInstr(_BINOP_VV[op], dest=dest, srcs=(vector, broadcast)))
        return dest

    def _emit_vv(self, op: str, lhs: VirtReg, rhs: VirtReg) -> VirtReg:
        gen = self.generator
        dest = gen.regs.new(RegClass.V)
        gen._emit(VInstr(_BINOP_VV[op], dest=dest, srcs=(lhs, rhs)))
        return dest

    def _unaryop(self, expr: ir.UnaryOp) -> VirtReg:
        gen = self.generator
        operand = self.eval_vector(expr.operand)
        dest = gen.regs.new(RegClass.V)
        opcode = {"sqrt": Opcode.VSQRT, "neg": Opcode.VNEG, "abs": Opcode.VABS}[expr.op]
        gen._emit(VInstr(opcode, dest=dest, srcs=(operand,)))
        return dest

    def _select(self, expr: ir.Select) -> VirtReg:
        gen = self.generator
        lhs = self.eval_vector(expr.cond.lhs)
        rhs = self.eval_vector(expr.cond.rhs)
        mask = vmreg(0)
        gen._emit(VInstr(Opcode.VCMP, dest=mask, srcs=(lhs, rhs), cond=expr.cond.cond))
        if_true = self.eval_vector(expr.if_true)
        if_false = self.eval_vector(expr.if_false)
        dest = gen.regs.new(RegClass.V)
        gen._emit(VInstr(Opcode.VMERGE, dest=dest, srcs=(if_true, if_false, mask)))
        return dest


def generate_code(kernel: ir.Kernel) -> GeneratedCode:
    """Convenience wrapper around :class:`CodeGenerator`."""
    return CodeGenerator(kernel).generate()

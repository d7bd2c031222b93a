"""Unit tests for the ISA: registers, opcodes, instructions and programs."""

import pytest

from repro.common.errors import TraceError
from repro.isa import (
    ELEMENT_BYTES,
    Instruction,
    InstrKind,
    MemAccess,
    Opcode,
    Program,
    RegClass,
    Register,
    VECTOR_COMPUTE_OPCODES,
    VECTOR_MEMORY_OPCODES,
    all_registers,
    areg,
    count_kinds,
    opcode_by_name,
    parse_register,
    sreg,
    vmreg,
    vreg,
)


class TestRegisters:
    def test_constructors(self):
        assert str(areg(3)) == "a3"
        assert str(sreg(0)) == "s0"
        assert str(vreg(7)) == "v7"
        assert str(vmreg(1)) == "vm1"

    @pytest.mark.parametrize("cls", list(RegClass))
    def test_eight_architected_registers_per_class(self, cls):
        assert cls.count == 8
        assert len(all_registers(cls)) == 8

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            vreg(8)
        with pytest.raises(ValueError):
            Register(RegClass.A, -1)

    @pytest.mark.parametrize("text,expected", [
        ("v3", vreg(3)), ("a0", areg(0)), ("S5", sreg(5)), ("vm2", vmreg(2)),
    ])
    def test_parse_register(self, text, expected):
        assert parse_register(text) == expected

    def test_parse_register_invalid(self):
        with pytest.raises(ValueError):
            parse_register("x9")

    def test_class_predicates(self):
        assert RegClass.A.is_scalar and RegClass.S.is_scalar
        assert RegClass.V.is_vector
        assert not RegClass.VM.is_scalar

    def test_registers_hashable_and_ordered(self):
        assert len({vreg(1), vreg(1), vreg(2)}) == 2
        assert vreg(1) < vreg(2)


class TestOpcodes:
    def test_fu2_only_opcodes(self):
        # FU1 executes everything except multiplication, division and sqrt.
        assert Opcode.VMUL.fu2_only
        assert Opcode.VDIV.fu2_only
        assert Opcode.VSQRT.fu2_only
        assert not Opcode.VADD.fu2_only
        assert not Opcode.VAND.fu2_only

    def test_kind_classification(self):
        assert Opcode.VLOAD.kind is InstrKind.VECTOR_LOAD
        assert Opcode.VSTORE.kind is InstrKind.VECTOR_STORE
        assert Opcode.VADD.kind is InstrKind.VECTOR_ALU
        assert Opcode.LOAD.kind is InstrKind.SCALAR_LOAD
        assert Opcode.BR.kind is InstrKind.BRANCH
        assert Opcode.SETVL.kind is InstrKind.VECTOR_CONTROL

    def test_kind_predicates(self):
        assert InstrKind.VECTOR_LOAD.is_vector and InstrKind.VECTOR_LOAD.is_memory
        assert InstrKind.VECTOR_LOAD.is_load and not InstrKind.VECTOR_LOAD.is_store
        assert InstrKind.SCALAR_STORE.is_store
        assert not InstrKind.VECTOR_ALU.is_memory

    def test_access_modes(self):
        assert Opcode.VLOAD.info.access is MemAccess.UNIT
        assert Opcode.VLOADS.info.access is MemAccess.STRIDED
        assert Opcode.VGATHER.info.access is MemAccess.INDEXED

    def test_opcode_sets(self):
        assert Opcode.VADD in VECTOR_COMPUTE_OPCODES
        assert Opcode.VLOAD in VECTOR_MEMORY_OPCODES
        assert Opcode.VLOAD not in VECTOR_COMPUTE_OPCODES

    def test_mask_attributes(self):
        assert Opcode.VCMP.info.writes_mask
        assert Opcode.VMERGE.info.uses_mask

    def test_opcode_by_name(self):
        assert opcode_by_name("vadd") is Opcode.VADD
        assert opcode_by_name("  VSQRT ") is Opcode.VSQRT
        with pytest.raises(ValueError):
            opcode_by_name("nope")


class TestInstruction:
    def test_element_bytes(self):
        assert ELEMENT_BYTES == 8

    def test_def_use_sets(self):
        instr = Instruction(Opcode.VADD, dest=vreg(0), srcs=(vreg(1), vreg(2)))
        assert instr.defined_registers() == (vreg(0),)
        assert instr.used_registers() == (vreg(1), vreg(2))
        assert set(instr.registers()) == {vreg(0), vreg(1), vreg(2)}

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BR, srcs=(areg(0),))

    def test_ret_needs_no_target(self):
        assert Instruction(Opcode.RET).is_branch

    def test_invalid_condition(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.CMP, dest=areg(0), srcs=(areg(1),), cond="weird")

    def test_classification_properties(self):
        load = Instruction(Opcode.VLOAD, dest=vreg(0), srcs=(areg(1),))
        assert load.is_vector and load.is_memory and load.is_load and not load.is_store
        store = Instruction(Opcode.STORE, srcs=(sreg(0), areg(1)))
        assert store.is_store and not store.is_vector

    def test_str_contains_operands(self):
        text = str(Instruction(Opcode.VADD, dest=vreg(0), srcs=(vreg(1), vreg(2))))
        assert "vadd" in text and "v0" in text and "v2" in text

    def test_spill_marker_in_str(self):
        text = str(Instruction(Opcode.VLOAD, dest=vreg(0), srcs=(areg(7),), is_spill=True))
        assert "spill" in text

    def test_count_kinds(self):
        instrs = [
            Instruction(Opcode.VADD, dest=vreg(0), srcs=(vreg(1), vreg(2))),
            Instruction(Opcode.VLOAD, dest=vreg(0), srcs=(areg(0),)),
            Instruction(Opcode.VLOAD, dest=vreg(1), srcs=(areg(0),)),
        ]
        counts = count_kinds(instrs)
        assert counts[InstrKind.VECTOR_ALU] == 1
        assert counts[InstrKind.VECTOR_LOAD] == 2

    def test_unique_uids(self):
        a = Instruction(Opcode.RET)
        b = Instruction(Opcode.RET)
        assert a.uid != b.uid


class TestProgram:
    def _program(self):
        program = Program("demo")
        entry = program.add_block("entry")
        entry.append(Instruction(Opcode.LI, dest=areg(0), imm=3))
        body = program.add_block("body")
        body.append(Instruction(Opcode.SUB, dest=areg(0), srcs=(areg(0),), imm=1))
        body.append(Instruction(Opcode.BR, srcs=(areg(0),), cond="gt", imm=0, target="body"))
        return program

    def test_validate_accepts_well_formed(self):
        self._program().validate()

    def test_duplicate_label_rejected(self):
        program = self._program()
        with pytest.raises(TraceError):
            program.add_block("body")

    def test_unknown_branch_target_rejected(self):
        program = self._program()
        program.block("body").append(
            Instruction(Opcode.JMP, target="nowhere")
        )
        with pytest.raises(TraceError):
            program.validate()

    def test_block_lookup(self):
        program = self._program()
        assert program.block("entry").label == "entry"
        assert program.block_index("body") == 1
        with pytest.raises(TraceError):
            program.block("missing")

    def test_entry_and_len(self):
        program = self._program()
        assert program.entry.label == "entry"
        assert len(program) == 3

    def test_empty_program_has_no_entry(self):
        with pytest.raises(TraceError):
            Program("empty").entry

    def test_static_counts(self):
        counts = self._program().static_counts()
        assert counts[InstrKind.SCALAR_ALU] == 2
        assert counts[InstrKind.BRANCH] == 1

    def test_terminator(self):
        program = self._program()
        assert program.block("body").terminator is not None
        assert program.block("entry").terminator is None

    def test_str_rendering(self):
        assert "body:" in str(self._program())

"""Unit tests for the OOOVA building blocks: rename, ROB, queues, predictor,
memory pipeline and load-elimination tags."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegClass, areg, sreg, vreg
from repro.ooo.btb import BranchPredictor
from repro.ooo.loadelim import LoadEliminationUnit, MemoryTag, TagTable, tag_for
from repro.ooo.mempipe import MemoryPipeline
from repro.ooo.queues import IssueQueue, QueueKind, QueueSet, route_queue
from repro.ooo.rename import RegisterFileRenamer, RenameUnit
from repro.ooo.rob import ReorderBuffer
from repro.trace.records import DynInstr


class TestRenamer:
    def test_source_of_unwritten_register_is_stable(self):
        renamer = RegisterFileRenamer(RegClass.V, 16)
        first = renamer.source(vreg(3))
        assert renamer.source(vreg(3)) is first

    def test_rename_destination_changes_mapping(self):
        renamer = RegisterFileRenamer(RegClass.V, 16)
        old = renamer.source(vreg(0))
        result = renamer.rename_destination(vreg(0), earliest=10)
        assert result.previous is old
        assert renamer.source(vreg(0)) is result.phys
        assert result.phys is not old

    def test_allocation_stalls_when_free_list_drained(self):
        renamer = RegisterFileRenamer(RegClass.V, 9)
        for i in range(8):
            renamer.source(vreg(i))
        first = renamer.rename_destination(vreg(0), earliest=0)
        assert first.available_at == 0
        # Nothing has been released yet: the next rename must wait until the
        # previous destination's old mapping comes back at its commit time.
        renamer.release(first.previous, at_cycle=500)
        second = renamer.rename_destination(vreg(1), earliest=0)
        assert second.available_at == 500
        # The stall is charged in cycles actually waited, not per event.
        assert renamer.allocation_stall_cycles == 500

    def test_release_ignores_still_mapped_registers(self):
        renamer = RegisterFileRenamer(RegClass.V, 16)
        phys = renamer.source(vreg(0))
        renamer.release(phys, at_cycle=10)
        assert not renamer.is_free(phys)

    def test_remap_pulls_register_back_from_free_list(self):
        renamer = RegisterFileRenamer(RegClass.V, 16)
        renamer.source(vreg(0))
        result = renamer.rename_destination(vreg(0), earliest=0)
        renamer.release(result.previous, at_cycle=5)
        assert renamer.is_free(result.previous)
        renamer.remap(vreg(1), result.previous)
        assert not renamer.is_free(result.previous)
        assert renamer.source(vreg(1)) is result.previous

    def test_wrong_class_rejected(self):
        renamer = RegisterFileRenamer(RegClass.V, 16)
        with pytest.raises(SimulationError):
            renamer.source(areg(0))

    def test_rename_unit_routes_classes(self):
        unit = RenameUnit(64, 64, 16, 8)
        assert unit.source(areg(0)) is unit.file(RegClass.A).source(areg(0))
        assert unit.source(vreg(0)) is not unit.source(sreg(0))


class TestReorderBuffer:
    def test_commit_in_order(self):
        rob = ReorderBuffer(64, 4)
        first = rob.commit(100)
        second = rob.commit(50)
        assert second >= first

    def test_commit_bandwidth(self):
        rob = ReorderBuffer(64, 2)
        times = [rob.commit(0) for _ in range(6)]
        # at most two commits per cycle
        assert times == [0, 0, 1, 1, 2, 2]

    def test_allocation_stalls_when_full(self):
        rob = ReorderBuffer(4, 4)
        for _ in range(4):
            rob.allocate(0)
            rob.commit(100)
        granted = rob.allocate(0)
        assert granted >= 100
        # Cycles waited: the entry was requested at 0 and granted at 100.
        assert rob.allocation_stall_cycles == granted - 0

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            ReorderBuffer(0, 4)


class TestQueues:
    def test_admit_until_full(self):
        queue = IssueQueue(QueueKind.V, 2)
        assert queue.admit(0) == 0
        assert queue.admit(0) == 0
        queue.register_departure(50)
        queue.register_departure(60)
        # Third admission must wait for the earliest departure.
        assert queue.admit(0) == 50
        # Cycles waited: requested at 0, granted at the departure time 50.
        assert queue.full_stall_cycles == 50

    def test_routing(self):
        vload = DynInstr(seq=0, opcode=Opcode.VLOAD, pc=0, dest=vreg(0), srcs=(areg(0),))
        vadd = DynInstr(seq=1, opcode=Opcode.VADD, pc=1, dest=vreg(0), srcs=(vreg(1),))
        branch = DynInstr(seq=2, opcode=Opcode.BR, pc=2, srcs=(areg(0),))
        addr = DynInstr(seq=3, opcode=Opcode.ADD, pc=3, dest=areg(0), srcs=(areg(0),))
        fscalar = DynInstr(seq=4, opcode=Opcode.FADD, pc=4, dest=sreg(0), srcs=(sreg(1),))
        assert route_queue(vload) is QueueKind.M
        assert route_queue(vadd) is QueueKind.V
        assert route_queue(branch) is QueueKind.A
        assert route_queue(addr) is QueueKind.A
        assert route_queue(fscalar) is QueueKind.S

    def test_queue_set(self):
        queues = QueueSet(16)
        assert queues.total_full_stall_cycles == 0


class TestBranchPredictor:
    def _branch(self, pc, taken, seq=0):
        return DynInstr(seq=seq, opcode=Opcode.BR, pc=pc, srcs=(areg(0),), taken=taken)

    def test_counter_learns_a_loop(self):
        predictor = BranchPredictor()
        outcomes = [predictor.predict_and_update(self._branch(7, True, i)) for i in range(10)]
        assert all(outcomes[2:])

    def test_loop_exit_mispredicts(self):
        predictor = BranchPredictor()
        for i in range(8):
            predictor.predict_and_update(self._branch(7, True, i))
        assert not predictor.predict_and_update(self._branch(7, False, 9))

    def test_call_return_well_nested(self):
        predictor = BranchPredictor(ras_depth=8)
        call = DynInstr(seq=0, opcode=Opcode.CALL, pc=3, taken=True, is_call=True)
        ret = DynInstr(seq=1, opcode=Opcode.RET, pc=9, taken=True, is_return=True)
        predictor.predict_and_update(call)
        assert predictor.predict_and_update(ret)

    def test_return_without_call_mispredicts(self):
        predictor = BranchPredictor()
        ret = DynInstr(seq=0, opcode=Opcode.RET, pc=9, taken=True, is_return=True)
        assert not predictor.predict_and_update(ret)

    def test_return_stack_overflow_drops_the_oldest_call(self):
        predictor = BranchPredictor(ras_depth=8)
        for seq in range(10):
            predictor.predict_and_update(
                DynInstr(seq=seq, opcode=Opcode.CALL, pc=3, taken=True, is_call=True))
        ret = DynInstr(seq=10, opcode=Opcode.RET, pc=9, taken=True, is_return=True)
        outcomes = [predictor.predict_and_update(ret) for _ in range(9)]
        assert outcomes == [True] * 8 + [False]

    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_predictor_never_crashes(self, stream):
        predictor = BranchPredictor()
        for seq, (pc, taken) in enumerate(stream):
            predictor.predict_and_update(self._branch(pc, taken, seq))
        assert len(predictor._btb) <= predictor.btb_entries
        assert all(0 <= entry.counter <= 3 for entry in predictor._btb.values())


class TestMemoryPipeline:
    def _access(self, seq, opcode, start, end):
        return DynInstr(seq=seq, opcode=opcode, pc=seq, region_start=start, region_end=end,
                        address=start, vl=8)

    def test_traverse_is_in_order(self):
        pipe = MemoryPipeline()
        assert pipe.traverse(0) == 3
        assert pipe.traverse(0) == 4

    def test_load_waits_for_overlapping_store(self):
        pipe = MemoryPipeline()
        store = self._access(0, Opcode.VSTORE, 100, 200)
        pipe.register_access(store, address_done=500)
        load = self._access(1, Opcode.VLOAD, 150, 180)
        assert pipe.dependence_ready(load, earliest=10) == 500

    def test_load_does_not_wait_for_disjoint_store(self):
        pipe = MemoryPipeline()
        pipe.register_access(self._access(0, Opcode.VSTORE, 100, 200), address_done=500)
        load = self._access(1, Opcode.VLOAD, 300, 400)
        assert pipe.dependence_ready(load, earliest=10) == 10

    def test_load_does_not_wait_for_older_load(self):
        pipe = MemoryPipeline()
        pipe.register_access(self._access(0, Opcode.VLOAD, 100, 200), address_done=500)
        load = self._access(1, Opcode.VLOAD, 100, 200)
        assert pipe.dependence_ready(load, earliest=10) == 10

    def test_store_waits_for_older_load_and_store(self):
        pipe = MemoryPipeline()
        pipe.register_access(self._access(0, Opcode.VLOAD, 100, 200), address_done=300)
        store = self._access(1, Opcode.VSTORE, 100, 200)
        assert pipe.dependence_ready(store, earliest=10) == 300


class TestLoadElimination:
    def _load(self, addr, vl=16, stride=8, opcode=Opcode.VLOAD):
        return DynInstr(seq=0, opcode=opcode, pc=0, vl=vl, stride=stride, address=addr,
                        region_start=addr, region_end=addr + (vl - 1) * stride + 8)

    def test_tag_for_vector_load(self):
        tag = tag_for(self._load(0x1000))
        assert tag == MemoryTag(0x1000, 0x1000 + 15 * 8 + 8, 16, 8)

    def test_exact_match_required(self):
        table = TagTable("V")
        table.set_tag(3, tag_for(self._load(0x1000)))
        assert table.find_exact(tag_for(self._load(0x1000))) == 3
        assert table.find_exact(tag_for(self._load(0x1000, vl=8))) is None
        assert table.find_exact(tag_for(self._load(0x1008))) is None

    def test_invalidate_overlapping(self):
        table = TagTable("V")
        table.set_tag(1, tag_for(self._load(0x1000)))
        table.set_tag(2, tag_for(self._load(0x2000)))
        table.invalidate_overlapping(0x1000, 0x1040)
        assert len(table) == 1
        assert table.find_exact(tag_for(self._load(0x1000))) is None
        assert table.find_exact(tag_for(self._load(0x2000))) == 2

    def test_store_invalidates_other_tables_but_keeps_own_register(self):
        unit = LoadEliminationUnit()
        load = self._load(0x1000)
        unit.load_executed(load, phys_id=5, table=unit.vector_tags)
        scalar_store = DynInstr(seq=1, opcode=Opcode.STORE, pc=1, address=0x1000,
                                region_start=0x1000, region_end=0x1008)
        unit.store_executed(scalar_store, phys_id=2, table=unit.s_tags)
        # the vector tag overlapping the stored word is gone
        assert unit.vector_tags.find_exact(tag_for(load)) is None
        # the stored register's own tag exists in the scalar table
        assert unit.s_tags.get(2) is not None

    def test_try_eliminate(self):
        unit = LoadEliminationUnit()
        load = self._load(0x3000)
        assert unit.try_eliminate(load, unit.vector_tags) is None
        unit.load_executed(load, phys_id=7, table=unit.vector_tags)
        assert unit.try_eliminate(load, unit.vector_tags) == 7

    def test_invalidate_on_overwrite(self):
        table = TagTable("V")
        table.set_tag(4, tag_for(self._load(0x1000)))
        table.invalidate(4)
        assert len(table) == 0

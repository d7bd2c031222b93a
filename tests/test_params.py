"""Unit tests for machine-parameter dataclasses."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    MAX_VECTOR_LENGTH,
    CommitModel,
    FunctionalUnitLatencies,
    LoadElimination,
    MemoryParams,
    OOOParams,
    ReferenceParams,
)


class TestFunctionalUnitLatencies:
    def test_defaults_are_positive(self):
        lat = FunctionalUnitLatencies()
        for field in dataclasses.fields(lat):
            assert getattr(lat, field.name) > 0, field.name

    def test_divide_slower_than_add(self):
        lat = FunctionalUnitLatencies()
        assert lat.div > lat.add
        assert lat.sqrt > lat.logical

    @pytest.mark.parametrize("op_class", ["logical", "add", "mul", "div", "sqrt"])
    def test_vector_op_latency_lookup(self, op_class):
        lat = FunctionalUnitLatencies()
        assert lat.vector_op_latency(op_class) == getattr(lat, op_class)

    def test_vector_op_latency_unknown_class(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitLatencies().vector_op_latency("bogus")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FunctionalUnitLatencies().add = 7


class TestMemoryParams:
    def test_default_latency_is_50(self):
        assert MemoryParams().latency == 50

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryParams(latency=-1)


class TestReferenceParams:
    def test_defaults_match_paper(self):
        params = ReferenceParams()
        assert params.vregs_per_bank == 2
        assert params.bank_read_ports == 2
        assert params.bank_write_ports == 1

    def test_with_memory_latency_returns_copy(self):
        params = ReferenceParams()
        other = params.with_memory_latency(100)
        assert other.memory.latency == 100
        assert params.memory.latency == 50

    def test_max_vector_length(self):
        assert MAX_VECTOR_LENGTH == 128


@pytest.mark.parametrize(("params_type", "name", "value"), [
    (ReferenceParams, "vregs_per_bank", 0),
    (ReferenceParams, "bank_read_ports", 0),
    (ReferenceParams, "bank_write_ports", 0),
    (ReferenceParams, "taken_branch_penalty", -1),
    (OOOParams, "btb_entries", 0),
    (OOOParams, "ras_depth", 0),
    (OOOParams, "branch_mispredict_penalty", -1),
])
def test_unusable_machine_parameters_are_rejected(params_type, name, value):
    # a machine that cannot run is refused when its parameters are built,
    # not deep in a run; the next value up is the smallest one accepted
    with pytest.raises(ConfigurationError):
        params_type(**{name: value})
    assert getattr(params_type(**{name: value + 1}), name) == value + 1


class TestOOOParams:
    def test_defaults_match_paper(self):
        params = OOOParams()
        assert params.num_phys_aregs == 64
        assert params.num_phys_sregs == 64
        assert params.num_phys_maskregs == 8
        assert params.rob_entries == 64
        assert params.queue_slots == 16
        assert params.commit_width == 4
        assert params.btb_entries == 64
        assert params.ras_depth == 8
        assert params.commit_model is CommitModel.EARLY
        assert params.load_elimination is LoadElimination.NONE

    def test_too_few_physical_vregs_rejected(self):
        with pytest.raises(ConfigurationError):
            OOOParams(num_phys_vregs=8)

    @pytest.mark.parametrize("count", [9, 12, 16, 32, 64])
    def test_paper_register_sweep_accepted(self, count):
        assert OOOParams(num_phys_vregs=count).num_phys_vregs == count

    def test_with_memory_latency(self):
        assert OOOParams().with_memory_latency(1).memory.latency == 1

    def test_invalid_rob(self):
        with pytest.raises(ConfigurationError):
            OOOParams(rob_entries=0)

    def test_invalid_queue_slots(self):
        with pytest.raises(ConfigurationError):
            OOOParams(queue_slots=0)

    def test_invalid_commit_width(self):
        with pytest.raises(ConfigurationError):
            OOOParams(commit_width=0)

    def test_too_few_scalar_registers_rejected(self):
        with pytest.raises(ConfigurationError):
            OOOParams(num_phys_aregs=4)
        with pytest.raises(ConfigurationError):
            OOOParams(num_phys_sregs=4)

    def test_commit_model_values(self):
        assert CommitModel("early") is CommitModel.EARLY
        assert CommitModel("late") is CommitModel.LATE

    def test_load_elimination_values(self):
        assert LoadElimination("sle") is LoadElimination.SLE
        assert LoadElimination("sle+vle") is LoadElimination.SLE_VLE

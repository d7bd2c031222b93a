"""Differential regression sweep: OoO machine versus the in-order reference.

Every registered workload is run once at the ``small`` scale (the scale the
paper harness uses) through both simulators; the results are cached at
module scope so each (workload, machine) pair is simulated exactly once no
matter how many invariants are checked against it.

The invariants are the cross-machine contracts every refactor must
preserve: both machines execute the identical dynamic instruction stream
(same trace), the out-of-order machine never loses to the in-order
reference, and its stall accounting stays physically sensible.
"""

import functools

import pytest

from repro.core.config import get_config, standard_configs
from repro.core.runner import ExperimentPoint
from repro.core.simulator import simulate_point
from repro.workloads.registry import WORKLOAD_NAMES

SCALE = "small"

#: the standard configurations of the OOOVA family: all but ``reference``
OOO_FAMILY = tuple(config for config in standard_configs() if config != "reference")


@functools.lru_cache(maxsize=None)
def _standard(name, config):
    """Simulate ``name`` on one standard configuration once per session."""
    return simulate_point(ExperimentPoint(name, SCALE, get_config(config)))


def _pair(name):
    """``name`` on the reference machine and on the default OOOVA."""
    return _standard(name, "reference"), _standard(name, "ooo")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestReferenceVsOOODifferential:
    def test_identical_instruction_and_operation_counts(self, name):
        ref, ooo = (r.stats for r in _pair(name))
        assert ref.scalar_instructions == ooo.scalar_instructions
        assert ref.vector_instructions == ooo.vector_instructions
        assert ref.branch_instructions == ooo.branch_instructions
        assert ref.vector_operations == ooo.vector_operations
        assert ref.traffic.total_ops == ooo.traffic.total_ops

    def test_ooo_cycles_never_exceed_reference(self, name):
        reference, ooo = _pair(name)
        assert 0 < ooo.cycles <= reference.cycles

    @pytest.mark.parametrize("config", OOO_FAMILY)
    def test_stall_statistics_are_non_negative_and_bounded(self, name, config):
        stats = _standard(name, config).stats
        lost = stats.lost_decode_cycles()
        assert all(cycles >= 0 for cycles in lost.values())
        # each individual stall source can never exceed total execution time,
        # and decode cannot lose more cycles than the run has
        assert all(cycles <= stats.cycles for cycles in lost.values())
        assert 0.0 <= stats.lost_decode_fraction() <= 1.0

    def test_reference_machine_reports_no_ooo_counters(self, name):
        reference, _ = _pair(name)
        stats = reference.stats
        assert stats.rename_stall_cycles == 0
        assert stats.rob_stall_cycles == 0
        assert stats.queue_stall_cycles == 0
        assert stats.loads_eliminated == 0

    def test_busy_intervals_fit_inside_execution(self, name):
        for result in _pair(name):
            stats = result.stats
            for unit in ("FU1", "FU2", "MEM"):
                assert 0 <= stats.unit_busy_cycles(unit) <= stats.cycles
            assert stats.address_port_busy_cycles <= stats.cycles


def _inorder(name):
    """``name`` on the registered in-order+renaming intermediate."""
    return _standard(name, "inorder")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestMachineOrdering:
    """The registered ``inorder`` machine sits between the two extremes.

    Renaming alone must never hurt (reference >= inorder) and giving up
    out-of-order issue must never help (inorder >= ooo) — on every
    workload, the sanity ordering the machine-comparison exhibit (Table 4)
    rests on.
    """

    def test_reference_inorder_ooo_cycle_ordering(self, name):
        reference, ooo = _pair(name)
        inorder = _inorder(name)
        assert 0 < ooo.cycles <= inorder.cycles <= reference.cycles

    def test_inorder_executes_the_same_work(self, name):
        reference, _ = _pair(name)
        inorder = _inorder(name)
        ref_stats, ino_stats = reference.stats, inorder.stats
        assert ref_stats.scalar_instructions == ino_stats.scalar_instructions
        assert ref_stats.vector_instructions == ino_stats.vector_instructions
        assert ref_stats.branch_instructions == ino_stats.branch_instructions
        assert ref_stats.vector_operations == ino_stats.vector_operations
        assert ref_stats.traffic.total_ops == ino_stats.traffic.total_ops

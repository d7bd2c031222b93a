"""Cross-machine consistency checks over the whole benchmark suite.

Runs every workload (at the cheap ``tiny`` scale) through both simulators
and checks the invariants that must hold for any program, plus the headline
relationships of the paper at suite level.
"""

import pytest

from repro.common.params import CommitModel, LoadElimination
from repro.core import ExperimentEngine, ooo_config, reference_config
from repro.workloads import WORKLOAD_NAMES

SCALE = "tiny"

#: one memory-only engine for the module, so each point simulates once
ENGINE = ExperimentEngine()


def _ref(name):
    return ENGINE.result(name, reference_config(), scale=SCALE)


def _ooo(name, **kwargs):
    return ENGINE.result(name, ooo_config(**kwargs), scale=SCALE)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestPerProgramConsistency:
    def test_same_work_on_both_machines(self, name):
        ref = _ref(name)
        ooo = _ooo(name)
        assert ref.stats.vector_operations == ooo.stats.vector_operations
        assert ref.stats.vector_instructions == ooo.stats.vector_instructions
        assert ref.stats.traffic.total_ops == ooo.stats.traffic.total_ops

    def test_ooo_is_not_slower(self, name):
        assert _ooo(name).cycles <= _ref(name).cycles * 1.02

    def test_time_accounting(self, name):
        for result in (_ref(name), _ooo(name)):
            stats = result.stats
            assert stats.cycles > 0
            assert stats.address_port_busy_cycles <= stats.cycles
            assert sum(stats.state_breakdown().values()) == stats.cycles
            assert 0.0 <= stats.memory_port_idle_fraction() <= 1.0

    def test_ideal_is_a_lower_bound(self, name):
        ref = _ref(name)
        assert ref.stats.ideal_cycles() <= ref.cycles
        assert ref.stats.ideal_cycles() <= _ooo(name, phys_vregs=64).cycles

    def test_register_sweep_monotone(self, name):
        cycles = [_ooo(name, phys_vregs=regs).cycles for regs in (9, 16, 64)]
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_late_commit_never_faster(self, name):
        early = _ooo(name, phys_vregs=16)
        late = _ooo(name, phys_vregs=16, commit_model=CommitModel.LATE)
        assert late.cycles >= early.cycles * 0.999

    def test_load_elimination_conserves_requests(self, name):
        baseline = _ooo(name, phys_vregs=32, commit_model=CommitModel.LATE)
        vle = _ooo(name, phys_vregs=32, commit_model=CommitModel.LATE,
                   load_elimination=LoadElimination.SLE_VLE)
        removed = vle.stats.traffic.total_eliminated_ops
        assert vle.stats.traffic.total_ops + removed == baseline.stats.traffic.total_ops
        assert vle.cycles <= baseline.cycles * 1.05

    def test_port_idle_not_worse_out_of_order(self, name):
        ref = _ref(name)
        ooo = _ooo(name, phys_vregs=16)
        assert ooo.stats.memory_port_idle_fraction() <= \
            ref.stats.memory_port_idle_fraction() + 0.02


class TestSuiteLevelClaims:
    def test_speedup_band_at_16_registers(self):
        speedups = [
            _ooo(name, phys_vregs=16).speedup_over(_ref(name)) for name in WORKLOAD_NAMES
        ]
        # Every program improves noticeably; the best programs approach ~2x.
        assert min(speedups) > 1.1
        assert max(speedups) < 2.5

    def test_trfd_is_among_the_biggest_winners(self):
        speedups = {
            name: _ooo(name, phys_vregs=16).speedup_over(_ref(name))
            for name in WORKLOAD_NAMES
        }
        ranked = sorted(speedups, key=speedups.get, reverse=True)
        assert "trfd" in ranked[:3]

    def test_spill_bound_programs_lead_load_elimination(self):
        gains = {}
        for name in WORKLOAD_NAMES:
            baseline = _ooo(name, phys_vregs=32, commit_model=CommitModel.LATE)
            vle = _ooo(name, phys_vregs=32, commit_model=CommitModel.LATE,
                       load_elimination=LoadElimination.SLE_VLE)
            gains[name] = vle.speedup_over(baseline)
        ranked = sorted(gains, key=gains.get, reverse=True)
        assert set(ranked[:2]) <= {"trfd", "dyfesm", "bdna"}

    def test_branch_predictor_learns_the_loops(self):
        for name in ("swm256", "trfd"):
            stats = _ooo(name, phys_vregs=16).stats
            assert stats.branch_instructions > 0
            assert stats.branch_mispredictions / stats.branch_instructions < 0.5

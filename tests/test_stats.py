"""Unit tests for simulation statistics containers."""

import re

import pytest

from repro.common.errors import SimulationError
from repro.common.intervals import BusyCalendar
from repro.common.stats import (
    MemoryTraffic,
    SimStats,
    VECTOR_UNIT_ORDER,
    check_invariants,
    format_state,
    speedup,
    state_histogram_table,
    traffic_reduction,
)


def _calendar(*intervals):
    calendar = BusyCalendar()
    for start, end in intervals:
        calendar.add(start, end)
    return calendar


class TestMemoryTraffic:
    def test_total_ops(self):
        traffic = MemoryTraffic(vector_load_ops=100, vector_store_ops=50,
                                scalar_load_ops=7, scalar_store_ops=3)
        assert traffic.total_ops == 160

    def test_spill_ops(self):
        traffic = MemoryTraffic(vector_load_spill_ops=10, scalar_store_spill_ops=2)
        assert traffic.spill_ops == 12

    def test_eliminated_ops(self):
        traffic = MemoryTraffic(eliminated_vector_load_ops=64, eliminated_scalar_load_ops=3)
        assert traffic.total_eliminated_ops == 67


class TestSimStats:
    def test_unit_order_matches_paper(self):
        assert VECTOR_UNIT_ORDER == ("FU2", "FU1", "MEM")

    def test_bare_stats_report_zero_activity(self):
        # a third-party machine's bare SimStats(): zero busy totals, no states
        stats = SimStats(cycles=40)
        assert stats.unit_busy == {"FU2": 0, "FU1": 0, "MEM": 0}
        assert stats.state_breakdown() == {}
        assert stats.ideal_cycles() == 0

    def test_record_and_query_unit_busy(self):
        stats = SimStats()
        fu1 = _calendar((0, 100), (100, 150))
        stats.record_unit_activity(BusyCalendar(), fu1, BusyCalendar())
        assert stats.unit_busy_cycles("FU1") == 150
        assert stats.unit_busy == {"FU2": 0, "FU1": 150, "MEM": 0}

    def test_memory_port_idle_fraction(self):
        stats = SimStats(cycles=200)
        stats.address_port_busy_cycles = 150
        assert stats.memory_port_idle_cycles() == 50
        assert stats.memory_port_idle_fraction() == pytest.approx(0.25)

    def test_idle_fraction_zero_cycles(self):
        assert SimStats().memory_port_idle_fraction() == 0.0

    def test_state_breakdown_partitions_cycles(self):
        stats = SimStats(cycles=100)
        stats.record_unit_activity(_calendar((0, 30)), BusyCalendar(), _calendar((20, 80)))
        breakdown = stats.state_breakdown()
        assert sum(breakdown.values()) == 100
        # keyed (FU2, FU1, MEM), in order of first occurrence
        assert list(breakdown.items()) == [
            ((True, False, False), 20),
            ((True, False, True), 10),
            ((False, False, True), 50),
            ((False, False, False), 20),
        ]

    def test_state_breakdown_is_a_copy(self):
        stats = SimStats(cycles=10)
        stats.record_unit_activity(BusyCalendar(), BusyCalendar(), BusyCalendar())
        stats.state_breakdown()[(True, True, True)] = 5
        assert stats.state_breakdown() == {(False, False, False): 10}

    def test_ideal_cycles_is_busiest_unit(self):
        stats = SimStats(cycles=500)
        stats.record_unit_activity(_calendar((0, 150)), _calendar((0, 100)), _calendar((0, 400)))
        assert stats.ideal_cycles() == 400

    def test_vectorization_percent(self):
        stats = SimStats(scalar_instructions=50, branch_instructions=50,
                         vector_instructions=10, vector_operations=900)
        assert stats.vectorization_percent() == pytest.approx(90.0)

    def test_average_vector_length(self):
        stats = SimStats(vector_instructions=4, vector_operations=500)
        assert stats.average_vector_length() == pytest.approx(125.0)
        assert SimStats().average_vector_length() == 0.0


def _bounded():
    """A result that keeps every bound of ``check_invariants``, none by much."""
    stats = SimStats(cycles=10, branch_instructions=4, branch_mispredictions=1,
                     rob_stall_cycles=2, queue_stall_cycles=3, rename_stall_cycles=4,
                     address_port_busy_cycles=7)
    stats.record_unit_activity(_calendar((0, 4)), _calendar((2, 6)), _calendar((4, 10)))
    stats.traffic = MemoryTraffic(
        vector_load_ops=3, vector_store_ops=2, scalar_load_ops=1, scalar_store_ops=1,
        vector_load_spill_ops=3, vector_store_spill_ops=2, scalar_load_spill_ops=2,
        scalar_store_spill_ops=1, eliminated_scalar_load_ops=1)
    return stats


def _set(name, value):
    def breaks(stats):
        owner, _, field = name.rpartition(".")
        setattr(stats.traffic if owner else stats, field, value)
    return breaks


def _add_state(stats):
    stats.unit_states[(False, False, False)] = 1  # an idle cycle too many


def _set_busy(unit, busy):
    def breaks(stats):
        stats.unit_busy[unit] = busy(stats.unit_busy[unit])
    return breaks


#: each bound, as check_invariants names it, and a change that breaks it
#: (an at-most bound is checked first, so it is named even where the
#: change breaks an equality too)
BROKEN_BOUNDS = {
    **{f"unit_busy[{unit}] <= cycles": _set_busy(unit, lambda _: 11)
       for unit in VECTOR_UNIT_ORDER},
    "sum(unit_states) == cycles": _add_state,
    **{f"unit_busy[{unit}] == cycles of the states with {unit} busy":
       _set_busy(unit, lambda busy: busy - 1) for unit in VECTOR_UNIT_ORDER},
    "traffic.total_ops <= address_port_busy_cycles": _set("address_port_busy_cycles", 6),
    "address_port_busy_cycles <= cycles": _set("address_port_busy_cycles", 11),
    "rob_stall_cycles + queue_stall_cycles + rename_stall_cycles <= cycles":
        _set("rename_stall_cycles", 6),
    "branch_mispredictions <= branch_instructions": _set("branch_mispredictions", 5),
    "traffic.vector_load_spill_ops <= vector load ops, eliminated ones included":
        _set("traffic.vector_load_spill_ops", 4),
    "traffic.scalar_load_spill_ops <= scalar load ops, eliminated ones included":
        _set("traffic.scalar_load_spill_ops", 3),
    "traffic.vector_store_spill_ops <= traffic.vector_store_ops":
        _set("traffic.vector_store_spill_ops", 3),
    "traffic.scalar_store_spill_ops <= traffic.scalar_store_ops":
        _set("traffic.scalar_store_spill_ops", 2),
}


class TestCheckInvariants:
    def test_a_bounded_result_passes(self):
        check_invariants(_bounded())

    @pytest.mark.parametrize("bound", BROKEN_BOUNDS)
    def test_each_broken_bound_raises_and_is_named(self, bound):
        stats = _bounded()
        BROKEN_BOUNDS[bound](stats)
        with pytest.raises(SimulationError, match=re.escape(bound)):
            check_invariants(stats)

    def test_simulate_trace_checks_every_builtin_point(self, monkeypatch):
        # a built-in machine whose result breaks a bound fails its point
        from repro.core.config import machine_config
        from repro.core.simulator import simulate_trace
        from repro.ooo.machine import _OOORun
        from repro.workloads.registry import get_workload

        finalise = _OOORun.finalise

        def overcounted(machine):
            stats = finalise(machine)
            stats.rename_stall_cycles = stats.cycles + 1
            return stats

        monkeypatch.setattr(_OOORun, "finalise", overcounted)
        with pytest.raises(SimulationError, match="rename_stall_cycles <= cycles"):
            simulate_trace(get_workload("trfd", "tiny").trace(), machine_config("ooo"))


class TestRatios:
    def test_speedup(self):
        slow = SimStats(cycles=200)
        fast = SimStats(cycles=100)
        assert speedup(slow, fast) == pytest.approx(2.0)

    def test_speedup_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            speedup(SimStats(cycles=10), SimStats(cycles=0))

    def test_traffic_reduction(self):
        base = SimStats()
        base.traffic.vector_load_ops = 1000
        opt = SimStats()
        opt.traffic.vector_load_ops = 800
        assert traffic_reduction(base, opt) == pytest.approx(1.25)

    def test_traffic_reduction_zero_rejected(self):
        with pytest.raises(ValueError):
            traffic_reduction(SimStats(), SimStats())


class TestFormatting:
    def test_format_state(self):
        assert format_state((True, True, True)) == "<FU2,FU1,MEM>"
        assert format_state((False, False, False)) == "<,,>"
        assert format_state((False, True, False)) == "<,FU1,>"

    def test_histogram_table(self):
        table = state_histogram_table({(True, False, True): 12, (False, False, False): 3})
        assert "<FU2,,MEM>" in table
        assert "12" in table

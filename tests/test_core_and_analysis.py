"""Tests for the public API layer: configurations, simulate_point(), experiments, reports."""

import pytest

from repro.analysis import (
    format_table,
    report_latency_tolerance,
    report_port_idle,
    report_simple_curves,
    report_speedup_curves,
    report_state_breakdown,
    report_table2,
    report_table3,
    report_traffic_reduction,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.params import CommitModel, LoadElimination, OOOParams, ReferenceParams
from repro.trace.records import Trace
from repro.core import (
    ExperimentEngine,
    ExperimentPoint,
    MachineConfig,
    get_config,
    ooo_config,
    reference_config,
    simulate_point,
    simulate_trace,
    standard_configs,
)
from repro.core.experiments import (
    figure3_reference_state_breakdown,
    figure4_reference_port_idle,
    figure5_speedup_vs_registers,
    figure6_port_idle_comparison,
    figure7_state_breakdown_comparison,
    figure8_latency_tolerance,
    figure9_commit_models,
    figure11_sle_speedup,
    figure12_sle_vle_speedup,
    figure13_traffic_reduction,
    table1_functional_unit_latencies,
    table2_program_statistics,
    table3_spill_statistics,
)
from repro.workloads import get_workload

SMALL = ("trfd",)  # one cheap program keeps the experiment tests fast

#: one memory-only engine for the module, so the experiment tests share points
ENGINE = ExperimentEngine()


class TestConfigs:
    def test_reference_config(self):
        config = reference_config(latency=70)
        assert isinstance(config.params, ReferenceParams)
        assert config.params.memory.latency == 70

    def test_ooo_config_naming(self):
        assert ooo_config().name == "ooo"
        assert ooo_config(commit_model=CommitModel.LATE).name == "ooo-late"
        assert ooo_config(commit_model=CommitModel.LATE,
                          load_elimination=LoadElimination.SLE).name == "ooo-late-sle"
        assert ooo_config(commit_model=CommitModel.LATE,
                          load_elimination=LoadElimination.SLE_VLE).name == "ooo-late-sle-vle"

    def test_standard_configs(self):
        configs = standard_configs()
        assert set(configs) == {"reference", "inorder", "ooo", "ooo-late",
                                "ooo-late-sle", "ooo-late-sle-vle"}

    def test_get_config(self):
        assert get_config("ooo").name == "ooo"
        with pytest.raises(ConfigurationError):
            get_config("warp-drive")


class TestRunAPI:
    def test_run_by_name_and_by_object(self):
        by_name = simulate_point(ExperimentPoint("trfd", "tiny", ooo_config()))
        by_object = simulate_trace(get_workload("trfd", "tiny").trace(), ooo_config())
        assert by_name.cycles == by_object.cycles
        assert by_name.workload == "trfd"
        assert by_name.config_name == "ooo"

    def test_simulate_trace_matches_run(self):
        workload = get_workload("trfd", "tiny")
        direct = simulate_trace(workload.trace(), reference_config())
        wrapped = simulate_point(ExperimentPoint("trfd", "tiny", reference_config()))
        assert direct.cycles == wrapped.cycles

    def test_empty_trace_rejected_on_both_simulator_paths(self):
        # Every path used to disagree here: simulate_ooo raised while the
        # reference path returned cycles=0 and later exploded in speedup().
        # The validation now lives in simulate_trace, once for both machines.
        for config in (reference_config(), ooo_config()):
            with pytest.raises(SimulationError):
                simulate_trace(Trace("empty"), config)

    def test_engine_result_returns_equal_but_independent_results(self):
        first = ENGINE.result("trfd", ooo_config(), scale="tiny")
        second = ENGINE.result("trfd", ooo_config(), scale="tiny")
        # Same simulation outcome, but never the same mutable object: the
        # store hands out defensive copies so callers cannot corrupt it.
        assert first is not second
        assert first.cycles == second.cycles
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_engine_result_is_immune_to_caller_mutation(self):
        first = ENGINE.result("trfd", ooo_config(), scale="tiny")
        pristine = first.stats.to_dict()
        first.stats.cycles = 1
        first.stats.unit_busy["FU1"] = 10_000_000
        first.stats.unit_states[(True, True, True)] = 10_000_000
        first.stats.traffic.vector_load_ops = -5
        refetched = ENGINE.result("trfd", ooo_config(), scale="tiny")
        assert refetched.stats.to_dict() == pristine

    def test_result_helpers(self):
        workload = get_workload("trfd", "tiny")
        baseline = simulate_trace(workload.trace(), reference_config())
        improved = simulate_trace(workload.trace(), ooo_config(phys_vregs=16))
        assert improved.speedup_over(baseline) > 1.0
        assert improved.traffic_reduction_over(baseline) == pytest.approx(1.0, abs=0.05)
        assert "trfd" in str(improved)
        assert improved.memory_latency == 50


class TestExperiments:
    def test_table1(self):
        latencies = table1_functional_unit_latencies()
        assert latencies["div"] == 9 and latencies["add"] == 4

    def test_table2_and_3(self):
        stats = table2_program_statistics(programs=SMALL, scale="tiny", engine=ENGINE)
        assert set(stats) == set(SMALL)
        spills = table3_spill_statistics(programs=SMALL, scale="tiny", engine=ENGINE)
        assert spills["trfd"]["vector_load_ops"] > 0

    def test_figure3(self):
        data = figure3_reference_state_breakdown(programs=SMALL, latencies=(1, 50),
                                                 scale="tiny", engine=ENGINE)
        assert set(data["trfd"]) == {1, 50}
        for breakdown in data["trfd"].values():
            assert sum(breakdown.values()) > 0

    def test_figure4(self):
        data = figure4_reference_port_idle(programs=SMALL, latencies=(1, 70),
                                           scale="tiny", engine=ENGINE)
        assert 0.0 <= data["trfd"][70] <= 1.0

    def test_figure5(self):
        data = figure5_speedup_vs_registers(programs=SMALL, register_counts=(9, 16),
                                            scale="tiny", engine=ENGINE)
        curves = data["trfd"]["curves"]
        assert curves["OOOVA-16"][16] >= curves["OOOVA-16"][9] - 0.01
        assert data["trfd"]["ideal"] > 1.0

    def test_figure6_and_7(self):
        idle = figure6_port_idle_comparison(programs=SMALL, scale="tiny", engine=ENGINE)
        assert idle["trfd"]["OOOVA"] <= idle["trfd"]["REF"]
        states = figure7_state_breakdown_comparison(programs=SMALL, scale="tiny", engine=ENGINE)
        assert set(states["trfd"]) == {"REF", "OOOVA"}

    def test_figure8(self):
        data = figure8_latency_tolerance(programs=SMALL, latencies=(1, 100),
                                         scale="tiny", engine=ENGINE)
        assert data["trfd"]["REF"][100] > data["trfd"]["REF"][1]
        assert data["trfd"]["IDEAL"][1] == data["trfd"]["IDEAL"][100]

    def test_figure9(self):
        data = figure9_commit_models(programs=SMALL, register_counts=(16,),
                                     scale="tiny", engine=ENGINE)
        assert data["trfd"]["late"][16] <= data["trfd"]["early"][16] + 0.01

    def test_figures_11_12_13(self):
        sle = figure11_sle_speedup(programs=SMALL, register_counts=(32,),
                                   scale="tiny", engine=ENGINE)
        vle = figure12_sle_vle_speedup(programs=SMALL, register_counts=(32,),
                                       scale="tiny", engine=ENGINE)
        assert sle["trfd"][32] > 0.9
        assert vle["trfd"][32] >= sle["trfd"][32] - 0.05
        traffic = figure13_traffic_reduction(programs=SMALL, scale="tiny", engine=ENGINE)
        assert traffic["trfd"]["SLE+VLE"] >= traffic["trfd"]["SLE"] - 0.01 >= 0.98


class TestReports:
    def test_format_table_alignment(self):
        table = format_table(["a", "b"], [["x", 1.23456], ["yy", 2]])
        assert "1.23" in table and "yy" in table

    def test_report_helpers_produce_text(self):
        stats = table2_program_statistics(programs=SMALL, scale="tiny", engine=ENGINE)
        assert "trfd" in report_table2(stats)
        assert "trfd" in report_table3(table3_spill_statistics(programs=SMALL,
                                                               scale="tiny", engine=ENGINE))
        idle = figure4_reference_port_idle(programs=SMALL, latencies=(1,),
                                           scale="tiny", engine=ENGINE)
        assert "%" in report_port_idle(idle, "Figure 4")
        speedups = figure5_speedup_vs_registers(programs=SMALL, register_counts=(9, 16),
                                                scale="tiny", engine=ENGINE)
        assert "OOOVA-16" in report_speedup_curves(speedups, (9, 16))
        states = figure3_reference_state_breakdown(programs=SMALL, latencies=(1,),
                                                   scale="tiny", engine=ENGINE)
        assert "trfd" in report_state_breakdown(states)
        latencies = figure8_latency_tolerance(programs=SMALL, latencies=(1, 100),
                                              scale="tiny", engine=ENGINE)
        assert "lat=100" in report_latency_tolerance(latencies, (1, 100))
        sle = figure11_sle_speedup(programs=SMALL, register_counts=(32,),
                                   scale="tiny", engine=ENGINE)
        assert "trfd" in report_simple_curves(sle, (32,), "SLE")
        traffic = figure13_traffic_reduction(programs=SMALL, scale="tiny", engine=ENGINE)
        assert "SLE+VLE" in report_traffic_reduction(traffic)

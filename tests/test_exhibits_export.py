"""Tests for the Figure 10 lost-decode exhibit and the machine-readable
``run-all --format json/csv`` output."""

import csv
import io
import json

import pytest

from repro.analysis.exhibits import EXHIBIT_NAMES, get_exhibits
from repro.analysis.export import exhibits_payload, render_csv, render_json, to_jsonable
from repro.analysis.report import report_lost_decode
from repro.common.params import OOOParams
from repro.core.experiments import figure10_lost_decode_cycles, lost_decode_row
from repro.core.runner import ExperimentEngine
from repro.isa.opcodes import Opcode
from repro.isa.registers import vreg
from repro.ooo.machine import simulate_ooo
from repro.trace.records import DynInstr, Trace


def _vadd_chain() -> Trace:
    """Three dependent VADDs (same trace as the stall-accounting tests)."""
    def vadd(seq, dest, src):
        return DynInstr(seq=seq, opcode=Opcode.VADD, pc=seq, dest=vreg(dest),
                        srcs=(vreg(src), vreg(src)), vl=4)

    return Trace("vadd-chain", [vadd(0, 3, 1), vadd(1, 4, 3), vadd(2, 5, 4)])


class TestLostDecodeExhibit:
    def test_row_pinned_on_hand_built_trace(self):
        # Hand-derived (see TestStallCycleAccounting): with one V-queue slot
        # the third VADD waits 6 cycles for admission; total runtime is 26.
        stats = simulate_ooo(_vadd_chain(), OOOParams(queue_slots=1))
        row = lost_decode_row(stats)
        assert row == {
            "cycles": 26,
            "rename": 0,
            "rob": 0,
            "queue": 6,
            "lost_percent": pytest.approx(100.0 * 6 / 26),
        }

    def test_row_pinned_rob_stalls(self):
        from repro.common.params import CommitModel

        stats = simulate_ooo(
            _vadd_chain(), OOOParams(rob_entries=1, commit_model=CommitModel.LATE))
        row = lost_decode_row(stats)
        assert row["cycles"] == 36
        assert row["rob"] == 22
        assert row["rename"] == 0 and row["queue"] == 0
        assert row["lost_percent"] == pytest.approx(100.0 * 22 / 36)

    def test_figure10_registered_as_exhibit(self):
        assert "figure10" in EXHIBIT_NAMES
        # paper order: between figure9 and figure11
        assert EXHIBIT_NAMES.index("figure9") < EXHIBIT_NAMES.index("figure10")
        assert EXHIBIT_NAMES.index("figure10") < EXHIBIT_NAMES.index("figure11")

    def test_figure10_runs_and_renders(self):
        data = figure10_lost_decode_cycles(["trfd"], register_counts=(9, 16),
                                           scale="tiny", engine=ExperimentEngine())
        assert set(data) == {"trfd"}
        assert set(data["trfd"]) == {9, 16}
        for row in data["trfd"].values():
            assert row["cycles"] > 0
            assert row["rename"] >= 0 and row["rob"] >= 0 and row["queue"] >= 0
        # fewer registers → at least as many rename-stall cycles
        assert data["trfd"][9]["rename"] >= data["trfd"][16]["rename"]
        report = report_lost_decode(data)
        assert "Figure 10" in report and "rename" in report

    def test_figure10_reuses_figure5_grid_points(self):
        # The exhibit must not enlarge the simulation grid: its configs are
        # the same early-commit OOOVA points Figure 5's 16-slot curve uses.
        from repro.core.experiments import figure5_speedup_vs_registers

        engine = ExperimentEngine()
        figure5_speedup_vs_registers(["trfd"], scale="tiny", engine=engine)
        before = engine.simulated
        figure10_lost_decode_cycles(["trfd"], scale="tiny", engine=engine)
        assert engine.simulated == before


class TestJsonableConversion:
    def test_state_tuple_keys_use_paper_notation(self):
        data = {("trfd"): {1: {(True, False, True): 10, (False, False, False): 2}}}
        converted = to_jsonable(data)
        assert converted == {"trfd": {"1": {"<FU2,,MEM>": 10, "<,,>": 2}}}
        json.dumps(converted)  # round-trips through the json module

    def test_dataclasses_become_dicts(self):
        from repro.trace.stats import compute_trace_statistics
        from repro.workloads.registry import get_workload

        stats = compute_trace_statistics(get_workload("trfd", "tiny").trace())
        converted = to_jsonable({"trfd": stats})
        assert converted["trfd"]["vector_instructions"] == stats.vector_instructions
        json.dumps(converted)

    def test_non_finite_floats_become_null(self):
        # figure5 reports {'ideal': inf} when a program has no vector work;
        # strict JSON has no Infinity/NaN spelling, so both map to null.
        converted = to_jsonable({"ideal": float("inf"), "nan": float("nan"),
                                 "ok": 1.5})
        assert converted == {"ideal": None, "nan": None, "ok": 1.5}
        doc = render_json(exhibits_payload({"f": converted}, "small", None))
        assert "Infinity" not in doc and "NaN" not in doc
        json.loads(doc)

    def test_payload_and_csv_formats(self):
        exhibits = {"figure6": {"trfd": {"REF": 0.5, "OOOVA": 0.25}}}
        payload = exhibits_payload(exhibits, "small", ["trfd"],
                                   engine_summary={"simulated": 2})
        doc = json.loads(render_json(payload))
        assert doc["scale"] == "small"
        assert doc["programs"] == ["trfd"]
        assert doc["engine"]["simulated"] == 2
        assert doc["exhibits"]["figure6"]["trfd"]["REF"] == 0.5

        rows = list(csv.reader(io.StringIO(render_csv(payload))))
        assert rows[0] == ["exhibit", "path", "value"]
        assert ["figure6", "trfd/REF", "0.5"] in rows
        assert ["figure6", "trfd/OOOVA", "0.25"] in rows


class TestCLIFormats:
    def test_run_all_json_parses_and_covers_exhibits(self, tmp_path, capsys):
        from repro.cli import main

        args = ["run-all", "--cache-dir", str(tmp_path), "--programs", "trfd",
                "--exhibits", "table1,figure6,figure10", "--format", "json"]
        assert main(args) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is one parseable document
        assert set(doc["exhibits"]) == {"table1", "figure6", "figure10"}
        assert doc["engine"]["simulated"] > 0
        assert "engine:" in captured.err  # human trailer stays on stderr
        # every per-register row of figure10 made it through conversion
        fig10 = doc["exhibits"]["figure10"]["trfd"]
        assert all("lost_percent" in row for row in fig10.values())

    def test_run_all_csv_is_flat_and_parseable(self, tmp_path, capsys):
        from repro.cli import main

        args = ["run-all", "--cache-dir", str(tmp_path), "--programs", "trfd",
                "--exhibits", "figure6", "--format", "csv"]
        assert main(args) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["exhibit", "path", "value"]
        paths = {row[1] for row in rows[1:] if row}
        assert {"trfd/REF", "trfd/OOOVA"} <= paths

    def test_run_all_warm_covers_whole_grid(self, tmp_path, capsys):
        # Acceptance criterion: a warm run-all against the cache dir
        # performs zero simulations — every point is a disk hit.
        from repro.cli import main

        args = ["run-all", "--cache-dir", str(tmp_path),
                "--programs", "trfd", "--exhibits", "figure6,figure8"]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "0 simulated" not in cold_out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "engine: 0 simulated" in warm_out
        assert f"store=object ({tmp_path / 'objects'})" in warm_out

    def test_gc_subcommand_reports_counts(self, tmp_path, capsys):
        from test_store_backends import _corrupt_entry

        from repro.cli import main
        from repro.core.runner import ExperimentPoint
        from repro.core.config import ooo_config

        assert main(["run-all", "--cache-dir", str(tmp_path),
                     "--programs", "trfd", "--exhibits", "figure6"]) == 0
        capsys.readouterr()
        # damage one of the two figure6 entries, then collect
        victim = ExperimentPoint("trfd", "small", ooo_config())
        _corrupt_entry(tmp_path, victim)
        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 kept, 1 evicted" in out

    def test_list_mentions_formats(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "csv" in out and "figure10" in out
        assert "stores:" not in out  # one store: nothing to choose

"""Behavioural tests for the :mod:`repro.api` façade.

Covers the Session lifecycle, RunRequest grids, exhibit parity with the
CLI and the machine-model registry.
"""

import json
import threading

import pytest

from repro.api import (
    ExhibitSet,
    MachineModel,
    RunRequest,
    Session,
    Settings,
    create_run,
    get_machine_model,
    machine_names,
    model_for_params,
    register_machine,
)
from repro.common.errors import ReproError
from repro.common.params import OOOParams, ReferenceParams
from repro.core import experiments
from repro.core.config import get_config, ooo_config
from repro.core.runner import ExperimentEngine, ExperimentPoint, ResultStore
from repro.core.simulator import simulate_point


class TestSessionLifecycle:
    def test_context_manager_and_close(self):
        with Session() as session:
            assert session.store.describe() == "memory"
        with pytest.raises(ReproError, match="closed"):
            session.result("nasa7", "reference")

    def test_kwargs_resolve_like_settings(self, tmp_path):
        with Session(cache_dir=tmp_path, jobs=2) as session:
            assert session.settings.cache_dir == str(tmp_path)
            assert session.engine.jobs == 2
            assert session.trace_store is not None

    def test_store_is_not_a_session_argument(self, tmp_path):
        # a cache dir always means the object store
        with pytest.raises(TypeError):
            Session(cache_dir=tmp_path, store="json")

    def test_flush_is_a_no_op(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            session.result("nasa7", "reference")
            files = sorted(tmp_path.rglob("*"))
            session.flush()
            assert sorted(tmp_path.rglob("*")) == files
        with Session(cache_dir=tmp_path) as session:
            session.result("nasa7", "reference")
            assert session.engine.simulated == 0

    def test_sessions_in_two_threads_keep_their_own_engines(self, tmp_path, monkeypatch):
        # both sessions are inside an exhibit before either resolves its
        # grid, so a grid that found its engine anywhere but in its own
        # arguments would run both exhibits on one engine
        barrier = threading.Barrier(2, timeout=60)
        grid_init = experiments._Grid.__init__

        def init_together(grid, *args, **kwargs):
            barrier.wait()
            grid_init(grid, *args, **kwargs)

        monkeypatch.setattr(experiments._Grid, "__init__", init_together)
        sessions = [Session(cache_dir=tmp_path / name, jobs=1, env={})
                    for name in ("one", "two")]
        threads = [
            threading.Thread(target=session.exhibits, kwargs={
                "names": ("table2",), "programs": ("trfd",)})
            for session in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for name, session in zip(("one", "two"), sessions):
            session.close()
            assert session.engine.simulated == 1, name
            results = list((tmp_path / name / "objects" / "results").rglob("*.json"))
            assert len(results) == 1, name

    def test_engine_on_the_same_cache_dir_shares_results(self, tmp_path):
        engine = ExperimentEngine(ResultStore(tmp_path))
        result = engine.result("nasa7", get_config("reference"))
        with Session(cache_dir=tmp_path) as session:
            assert session.engine.simulated == 0  # served from the shared cache
            via_session = session.result("nasa7", "reference")
        assert via_session.to_dict() == result.to_dict()


class TestRunRequestGrids:
    def test_grid_matches_direct_simulation(self):
        request = RunRequest(workloads=("nasa7",), configs=("reference", "ooo"))
        with Session() as session:
            grid = session.run(request)
        assert len(grid) == 2
        direct = simulate_point(ExperimentPoint("nasa7", "small", get_config("ooo")))
        assert grid.get("nasa7", "ooo").to_dict() == direct.to_dict()
        assert grid.speedup("nasa7", "ooo") == pytest.approx(
            direct.speedup_over(simulate_point(ExperimentPoint("nasa7", "small", get_config("reference")))))

    def test_grid_comes_back_in_request_order_whatever_was_cached(self):
        request = RunRequest(workloads=("nasa7",), configs=("reference", "ooo"))
        with Session() as session:
            session.result("nasa7", "ooo")  # the second point is cached first
            grid = session.run(request)
        assert [config.name for (_, config), _ in grid] == ["reference", "ooo"]
        assert [row["config_name"] for row in grid.to_dict()["nasa7"]] == [
            "reference", "ooo"]

    def test_duplicate_config_names_stay_addressable(self):
        small = ooo_config(phys_vregs=9)
        large = ooo_config(phys_vregs=64)
        assert small.name == large.name  # the ambiguity under test
        with Session() as session:
            grid = session.run(RunRequest(workloads=("nasa7",),
                                          configs=(small, large)))
        assert grid.get("nasa7", small).cycles >= grid.get("nasa7", large).cycles
        with pytest.raises(ReproError, match="ambiguous"):
            grid.get("nasa7", "ooo")

    def test_unknown_workload_rejected(self):
        with Session() as session:
            with pytest.raises(ReproError, match="unknown workload"):
                session.run(RunRequest(workloads=("doom",)))

    def test_results_are_defensive_copies(self):
        request = RunRequest(workloads=("nasa7",), configs=("reference",))
        with Session() as session:
            first = session.run(request).get("nasa7", "reference")
            first.stats.cycles = -1
            second = session.run(request).get("nasa7", "reference")
        assert second.cycles > 0

    def test_to_dict_lists_every_grid_point(self):
        small = ooo_config(phys_vregs=9)
        large = ooo_config(phys_vregs=64)
        with Session() as session:
            grid = session.run(RunRequest(workloads=("nasa7",),
                                          configs=(small, large)))
        assert len(grid.to_dict()["nasa7"]) == 2


class TestExhibitParityWithCLI:
    def test_exhibit_set_data_equals_cli_json(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--exhibits", "table2,figure6",
                     "--programs", "trfd", "--format", "json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)

        with Session() as session:
            exhibits = session.exhibits(names=("table2", "figure6"),
                                        programs=("trfd",), scale="small")
        api_doc = json.loads(exhibits.to_json())
        assert api_doc["exhibits"] == cli_doc["exhibits"]
        assert api_doc["scale"] == cli_doc["scale"]
        assert api_doc["programs"] == cli_doc["programs"]

    def test_exhibit_set_text_matches_cli_blocks(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--exhibits", "table1"]) == 0
        cli_out = capsys.readouterr().out

        with Session() as session:
            exhibits = session.exhibits(names=("table1",))
        table1 = exhibits["table1"]
        assert table1.render() in cli_out
        assert exhibits.render("table1") == table1.render()
        # the full text layout embeds the same report between its rules
        assert table1.render() in exhibits.to_text()

    def test_exhibits_cache_through_session_store(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            session.exhibits(names=("figure6",), programs=("trfd",))
            assert session.engine.simulated > 0
        with Session(cache_dir=tmp_path) as session:
            session.exhibits(names=("figure6",), programs=("trfd",))
            assert session.engine.simulated == 0
            assert session.engine.disk_hits > 0

    def test_exhibits_csv_has_flat_rows(self):
        with Session() as session:
            exhibits = session.exhibits(names=("figure6",), programs=("trfd",))
        rows = exhibits.to_csv().splitlines()
        assert rows[0] == "exhibit,path,value"
        assert any(row.startswith("figure6,trfd/") for row in rows[1:])

    def test_unknown_exhibit_name_rejected(self):
        with Session() as session:
            with pytest.raises(ReproError, match="unknown exhibit"):
                session.exhibits(names=("figure99",))

    def test_object_store_serves_warm_exhibits(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            session.exhibits(names=("figure6",), programs=("trfd",))
        with Session(cache_dir=tmp_path) as session:
            exhibits = session.exhibits(names=("figure6",), programs=("trfd",))
            assert session.engine.simulated == 0
        assert isinstance(exhibits, ExhibitSet)


class TestSimulateAndGc:
    def test_simulate_returns_the_point_result(self):
        with Session() as session:
            result = session.simulate("nasa7", "ooo")
        assert result.to_dict() == simulate_point(ExperimentPoint("nasa7", "small", get_config("ooo"))).to_dict()

    def test_simulate_unknown_program(self):
        with Session() as session:
            with pytest.raises(ReproError, match="unknown program"):
                session.simulate("doom")

    def test_gc_requires_cache_dir(self):
        with Session() as session:
            with pytest.raises(ReproError, match="cache directory"):
                session.gc()

    def test_gc_covers_all_namespaces(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            session.result("nasa7", "reference")
            collected = session.gc()
        assert set(collected) == {"results", "traces"}
        assert collected["results"][0] >= 1  # the stored result was kept
        assert collected["traces"][0] >= 1   # the memoised trace was kept


class TestMachineRegistry:
    def test_builtin_models_registered(self):
        assert set(machine_names()) >= {"reference", "ooo"}
        assert model_for_params(OOOParams()).name == "ooo"
        assert model_for_params(ReferenceParams()).name == "reference"

    def test_create_run_builds_protocol_machines(self):
        machine = create_run(OOOParams())
        for method in ("run_slice", "finalise"):
            assert callable(getattr(machine, method))

    def test_unknown_lookups_raise(self):
        with pytest.raises(ReproError, match="unknown machine model"):
            get_machine_model("quantum")
        with pytest.raises(ReproError, match="no machine model registered"):
            model_for_params(object())

    def test_conflicting_registration_rejected(self):
        class _FakeParams:
            pass

        with pytest.raises(ReproError, match="already registered"):
            register_machine(MachineModel(
                name="ooo", params_type=_FakeParams,
                factory=lambda params, trace: None))
        with pytest.raises(ReproError, match="already registered"):
            register_machine(MachineModel(
                name="ooo2", params_type=OOOParams,
                factory=lambda params, trace: None))


class TestSettingsSessionIntegration:
    def test_settings_object_reuse(self, tmp_path):
        settings = Settings.resolve(cache_dir=tmp_path, env={})
        with Session(settings) as first:
            first.result("nasa7", "reference")
        with Session(settings, jobs=2) as second:
            assert second.engine.jobs == 2
            assert second.engine.simulated == 0 or second.engine.disk_hits >= 0
            second.result("nasa7", "reference")
            assert second.engine.simulated == 0  # warm via shared cache dir

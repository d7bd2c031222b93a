"""Tests for the experiment engine: specs, fingerprints, store, parallelism,
serialisation round-trips and the command-line driver."""

import importlib
import json
import multiprocessing
import os
import signal
import sys
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import pytest

from repro.common.errors import ConfigurationError
from repro.common.intervals import BusyCalendar
from repro.common.params import (
    CommitModel,
    LoadElimination,
    OOOParams,
    ReferenceParams,
)
from repro.common.stats import SimStats
from repro.core.config import MachineConfig, ooo_config, reference_config
from repro.core.machines import params_from_dict, params_to_dict
from repro.core.results import SimulationResult
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
)
from repro.core.simulator import simulate_point


def _point(regs=16, scale="tiny", workload="trfd"):
    return ExperimentPoint(workload, scale, ooo_config(phys_vregs=regs))


class TestSerialization:
    def test_params_round_trip_ooo(self):
        params = OOOParams(
            num_phys_vregs=32,
            commit_model=CommitModel.LATE,
            load_elimination=LoadElimination.SLE_VLE,
        ).with_memory_latency(70)
        rebuilt = params_from_dict(params_to_dict(params))
        assert rebuilt == params
        assert json.dumps(params_to_dict(params))  # JSON-compatible

    def test_params_round_trip_reference(self):
        params = ReferenceParams().with_memory_latency(20)
        assert params_from_dict(params_to_dict(params)) == params

    def test_params_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            params_from_dict({"kind": "quantum"})

    def test_only_a_registered_model_serialises(self):
        # the kind is the registry's name for exactly type(params)
        from dataclasses import dataclass

        from repro.core import machines as machines_module
        from repro.core.machines import MachineModel, register_machine

        @dataclass(frozen=True)
        class DroppedParams:
            cost: int = 1

        class SubclassedParams(OOOParams):
            pass

        with pytest.raises(ConfigurationError):
            params_to_dict(SubclassedParams())
        register_machine(MachineModel(
            name="dropped-test", params_type=DroppedParams,
            factory=lambda params, trace: None))
        try:
            payload = params_to_dict(DroppedParams())
            assert payload == {"kind": "dropped-test", "cost": 1}
            assert params_from_dict(payload) == DroppedParams()
        finally:
            machines_module._REGISTRY.pop("dropped-test", None)
        with pytest.raises(ConfigurationError):
            params_to_dict(DroppedParams())
        with pytest.raises(ConfigurationError):
            params_from_dict(payload)

    def test_result_round_trip_preserves_statistics(self):
        result = simulate_point(ExperimentPoint("trfd", "tiny", ooo_config()))
        rebuilt = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt.workload == result.workload
        assert rebuilt.config_name == result.config_name
        assert rebuilt.params == result.params
        assert rebuilt.cycles == result.cycles
        assert rebuilt.stats.state_breakdown() == result.stats.state_breakdown()
        assert rebuilt.stats.memory_port_idle_fraction() == \
            result.stats.memory_port_idle_fraction()
        assert rebuilt.stats.ideal_cycles() == result.stats.ideal_cycles()
        assert rebuilt.stats.traffic.total_ops == result.stats.traffic.total_ops

    def test_stats_round_trip_counters(self):
        stats = SimStats(cycles=100, rename_stall_cycles=7, rob_stall_cycles=3)
        fu1 = BusyCalendar()
        fu1.add(0, 40)
        stats.record_unit_activity(BusyCalendar(), fu1, BusyCalendar())
        rebuilt = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert rebuilt == stats
        assert rebuilt.rename_stall_cycles == 7
        assert rebuilt.rob_stall_cycles == 3
        assert rebuilt.unit_busy_cycles("FU1") == 40
        assert list(rebuilt.state_breakdown().items()) == [
            ((False, True, False), 40), ((False, False, False), 60)]


class TestFingerprints:
    def test_identical_points_share_a_fingerprint(self):
        assert _point().fingerprint() == _point().fingerprint()

    def test_fingerprint_distinguishes_every_axis(self):
        base = _point()
        assert base.fingerprint() != _point(regs=32).fingerprint()
        assert base.fingerprint() != _point(scale="small").fingerprint()
        assert base.fingerprint() != _point(workload="bdna").fingerprint()
        late = ExperimentPoint(
            "trfd", "tiny", ooo_config(commit_model=CommitModel.LATE))
        assert base.fingerprint() != late.fingerprint()


def _entries(cache_dir):
    return list((cache_dir / "objects" / "results").glob("??/*.json"))


class TestResultStore:
    """Object-store persistence through the ResultStore API.

    The store contract is exercised more widely (including with hypothesis)
    in ``tests/test_store_backends.py``; these tests pin the on-disk layout.
    """

    def test_disk_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        result = simulate_point(point)
        store.put(point, result)
        files = _entries(tmp_path)
        assert len(files) == 1
        # One object per entry: objects/results/<fp[:2]>/<fp>.json
        assert files[0].name == f"{point.fingerprint()}.json"
        assert files[0].parent.name == point.fingerprint()[:2]
        # A brand-new store (fresh process, in spirit) finds it on disk.
        fresh = ResultStore(tmp_path)
        fetched = fresh.get(point)
        assert fetched is not None
        assert fetched.cycles == result.cycles
        assert fresh.disk_hits == 1

    def test_get_returns_independent_copies(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, simulate_point(point))
        first = store.get(point)
        first.stats.cycles = -1
        second = store.get(point)
        assert second.cycles > 0

    def test_corrupt_disk_entry_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, simulate_point(point))
        path = _entries(tmp_path)[0]
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get(point) is None
        assert not path.exists()

    def test_stale_entry_with_invalid_params_is_dropped(self, tmp_path):
        # Valid JSON whose params no longer validate (e.g. written by an
        # older schema) must self-heal too, not crash with a ReproError.
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, simulate_point(point))
        path = _entries(tmp_path)[0]
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["result"]["params"]["num_phys_vregs"] = 4  # out of range
        path.write_text(json.dumps(payload), encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get(point) is None
        assert not path.exists()

    def test_put_uses_unique_temp_names(self, tmp_path, monkeypatch):
        # Two workers storing the same point concurrently must never share
        # a temp file (the old path.with_suffix(".tmp") did).
        import repro.core.objectstore as store_mod

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", recording_replace)
        store = ResultStore(tmp_path)
        point = _point()
        result = simulate_point(point)
        store.put(point, result)
        store.put(point, result)
        tmp_names = [name for name in seen if name.endswith(".tmp")]
        assert len(tmp_names) == 2
        assert tmp_names[0] != tmp_names[1]
        assert all(f".{os.getpid()}." in name for name in tmp_names)


class TestEngine:
    def test_run_spec_simulates_each_point_once(self):
        engine = ExperimentEngine()
        spec = ExperimentSpec.grid(
            "dup", ["trfd"], [ooo_config(), ooo_config(), reference_config()], "tiny")
        results = engine.run_spec(spec)
        # duplicate configs collapse onto one point
        assert len(results) == 2
        assert engine.simulated == 2
        engine.run_spec(spec)
        assert engine.simulated == 2  # all hits the second time

    def test_engine_results_match_direct_simulation(self):
        engine = ExperimentEngine()
        direct = simulate_point(ExperimentPoint("trfd", "tiny", ooo_config()))
        via_engine = engine.result("trfd", ooo_config(), scale="tiny")
        assert via_engine.cycles == direct.cycles
        assert via_engine.stats.to_dict() == direct.stats.to_dict()

    def test_parallel_execution_matches_serial(self, tmp_path):
        spec = ExperimentSpec.grid(
            "par", ["trfd", "bdna"],
            [reference_config(), ooo_config(), ooo_config(phys_vregs=32)], "tiny")
        serial = ExperimentEngine(jobs=1).run_spec(spec)
        engine = ExperimentEngine(ResultStore(tmp_path), jobs=2)
        try:
            parallel = engine.run_spec(spec)
        finally:
            engine.close()
        assert set(serial) == set(parallel)
        for point in serial:
            assert serial[point].cycles == parallel[point].cycles
            assert serial[point].stats.to_dict() == parallel[point].stats.to_dict()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_serialises_each_result_once(self, tmp_path, monkeypatch, jobs):
        # in-process and from the pool, the parent gets result objects: it
        # serialises each simulated point once, to write its result object,
        # and decodes none; a memory-only engine does neither
        calls = {"to_dict": 0, "from_dict": 0}
        real_to_dict = SimulationResult.to_dict
        real_from_dict = vars(SimulationResult)["from_dict"].__func__

        def to_dict(self):
            calls["to_dict"] += 1
            return real_to_dict(self)

        def from_dict(cls, payload):
            calls["from_dict"] += 1
            return real_from_dict(cls, payload)

        monkeypatch.setattr(SimulationResult, "to_dict", to_dict)
        monkeypatch.setattr(SimulationResult, "from_dict", classmethod(from_dict))
        spec = ExperimentSpec.grid(
            "cold", ["trfd", "bdna"],
            [reference_config(), ooo_config(), ooo_config(phys_vregs=32)], "tiny")
        engine = ExperimentEngine(ResultStore(tmp_path), jobs=jobs)
        try:
            engine.run_spec(spec)
        finally:
            engine.close()
        assert engine.simulated == 6
        assert calls == {"to_dict": 6, "from_dict": 0}
        if jobs == 1:
            calls.update(to_dict=0)
            ExperimentEngine().run_spec(spec)
            assert calls == {"to_dict": 0, "from_dict": 0}

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_warm_disk_cache_skips_all_simulation(self, tmp_path):
        spec = ExperimentSpec.grid(
            "warm", ["trfd"], [reference_config(), ooo_config()], "tiny")
        cold = ExperimentEngine(ResultStore(tmp_path))
        cold.run_spec(spec)
        assert cold.simulated == 2
        warm = ExperimentEngine(ResultStore(tmp_path))
        warm.run_spec(spec)
        assert warm.simulated == 0
        assert warm.disk_hits == 2

    def test_summary_mentions_counters(self):
        engine = ExperimentEngine()
        engine.result("trfd", ooo_config(), scale="tiny")
        assert "1 simulated" in engine.summary()


class TestCLI:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "trfd" in out

    def test_run_all_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        args = ["run-all", "--scale", "small", "--cache-dir", str(tmp_path),
                "--exhibits", "table1,figure6", "--programs", "trfd"]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "Figure 6" in cold_out and "Table 1" in cold_out
        assert "0 simulated" not in cold_out
        # A second invocation (fresh engine, same cache dir) simulates nothing.
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "0 simulated" in warm_out

    def test_run_all_rejects_unknown_exhibit(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--exhibits", "figure99"]) == 2
        assert "unknown exhibit" in capsys.readouterr().err

    def test_run_all_rejects_unknown_program(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--programs", "doom"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_run_all_rejects_empty_selections(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--exhibits", ""]) == 2
        assert "selected nothing" in capsys.readouterr().err
        assert main(["run-all", "--programs", ","]) == 2
        assert "selected nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run-all", "--jobs", "0"], "jobs must be at least 1"),
        (["run-all", "--fleet", "-1"], "fleet must be at least 0"),
        (["run-all", "--fleet", "1"], "--fleet requires --cache-dir"),
        (["worker", "--max-tasks", "0"], "max_tasks must be at least 1"),
        (["worker", "--lease-ttl", "0"], "lease_ttl must be positive"),
        (["worker", "--poll", "0"], "poll_s must be positive"),
        (["worker", "--idle-timeout", "-5"], "idle_timeout must be non-negative"),
    ])
    def test_rejected_flag_exits_2(self, argv, message, tmp_path, capsys, monkeypatch):
        # the API makes each check; the CLI reports it and prints nothing else
        from repro.cli import main

        for name in ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_FLEET"):
            monkeypatch.delenv(name, raising=False)
        if argv[0] == "worker":
            argv = [*argv, "--store-root", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        import repro.core.runner as runner_mod

        def explode(self, points):
            raise BrokenProcessPool("workers died")

        monkeypatch.setattr(ExperimentEngine, "_execute_parallel", explode)
        engine = ExperimentEngine(jobs=4)
        spec = ExperimentSpec.grid(
            "fallback", ["trfd"], [ooo_config(), reference_config()], "tiny")
        try:
            results = engine.run_spec(spec)
        finally:
            engine.close()
        assert len(results) == 2
        assert all(r.cycles > 0 for r in results.values())


#: seconds any pool worker may take to start, finish or exit in these tests
_WAIT_S = 30


def _live_children():
    """Live child processes of this process, by pid."""
    return {proc.pid: proc for proc in multiprocessing.active_children()}


def _assert_exited(workers):
    for proc in workers.values():
        proc.join(timeout=_WAIT_S)
        assert not proc.is_alive(), f"pool worker {proc.pid} outlived its engine"


def _grid(name, workload):
    return ExperimentSpec.grid(
        name, [workload], [reference_config(), ooo_config(), ooo_config(phys_vregs=32)],
        "tiny")


def _same_results(got, expected):
    assert set(got) == set(expected)
    for point in expected:
        assert got[point].stats.to_dict() == expected[point].stats.to_dict()


@pytest.fixture
def pool_model():
    """The toy model of ``tests/pool_machine.py``, registered by its import.

    The registry is process-global: the model is dropped again on
    teardown so registry-driven tests elsewhere see only the real machines.
    """
    from repro.core import machines as machines_module

    sys.modules.pop("pool_machine", None)
    module = importlib.import_module("pool_machine")
    yield module
    machines_module._REGISTRY.pop(module.NAME, None)
    sys.modules.pop("pool_machine", None)


class TestEnginePool:
    """A ``jobs > 1`` engine owns one process pool from first miss to close()."""

    def test_specs_share_one_pool_until_close(self, tmp_path):
        before = set(_live_children())
        engine = ExperimentEngine(ResultStore(tmp_path), jobs=2)
        try:
            engine.run_spec(_grid("first", "trfd"))
            workers = {pid: proc for pid, proc in _live_children().items()
                       if pid not in before}
            assert len(workers) == 2
            engine.run_spec(_grid("second", "bdna"))
            after = {pid for pid in _live_children() if pid not in before}
            assert after == set(workers)
        finally:
            engine.close()
        _assert_exited(workers)
        assert engine._pool is None

    def test_no_pool_until_a_batch_misses(self, tmp_path):
        spec = _grid("warm", "trfd")
        ExperimentEngine(ResultStore(tmp_path)).run_spec(spec)
        engine = ExperimentEngine(ResultStore(tmp_path), jobs=2)
        try:
            engine.run_spec(spec)
            assert engine.simulated == 0
            assert engine._pool is None
        finally:
            engine.close()

    def test_session_close_releases_its_pool(self):
        from repro.api import RunRequest, Session

        before = set(_live_children())
        with Session(jobs=2, env={}) as session:
            grid = session.run(RunRequest(
                workloads=("nasa7",), configs=("reference", "ooo")))
            assert len(grid.results) == 2
            workers = {pid: proc for pid, proc in _live_children().items()
                       if pid not in before}
            assert workers, "the request never reached the session's pool"
        _assert_exited(workers)
        assert session.engine._pool is None

    def test_killed_worker_falls_back_then_builds_a_fresh_pool(self, tmp_path):
        second = _grid("second", "bdna")
        serial = ExperimentEngine().run_spec(second)
        before = set(_live_children())
        engine = ExperimentEngine(ResultStore(tmp_path), jobs=2)
        try:
            engine.run_spec(_grid("first", "trfd"))
            first_pool = engine._pool
            workers = {pid: proc for pid, proc in _live_children().items()
                       if pid not in before}
            victim = next(iter(workers.values()))
            os.kill(victim.pid, signal.SIGKILL)
            assert wait([victim.sentinel], timeout=_WAIT_S), "SIGKILL did not land"

            _same_results(engine.run_spec(second), serial)
            assert engine._pool is None  # the broken pool was dropped

            engine.run_spec(_grid("third", "nasa7"))
            assert engine._pool is not None and engine._pool is not first_pool
            fresh = {pid: proc for pid, proc in _live_children().items()
                     if pid not in before}
            assert fresh and not set(fresh) & set(workers)
        finally:
            engine.close()
        _assert_exited(workers)
        _assert_exited(fresh)

    def test_model_registered_at_import_runs_in_the_pool(self, pool_model):
        config = MachineConfig(pool_model.NAME, pool_model.FlatParams())
        spec = ExperimentSpec.grid("custom", ["trfd", "bdna"], [config], "tiny")
        serial = ExperimentEngine().run_spec(spec)
        engine = ExperimentEngine(jobs=2)
        try:
            pooled = engine.run_spec(spec)
            # the fallback path drops the pool: a live one ran the points
            assert engine._pool is not None
        finally:
            engine.close()
        _same_results(pooled, serial)
        assert all(result.cycles > 0 for result in pooled.values())

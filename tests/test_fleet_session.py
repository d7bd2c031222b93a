"""API-level tests for engine construction, RunHandle and the fleet.

Covers how :class:`~repro.core.runner.ExperimentEngine` takes its
execution settings (validated ``jobs`` and ``fleet`` arguments, passed by
a :class:`~repro.api.Session` from its resolved
:class:`~repro.api.Settings`), the
:meth:`Session.submit() <repro.api.Session.submit>` →
:class:`~repro.api.RunHandle` lifecycle in both execution modes, and the
headline fleet guarantee: a grid run through spawned fleet workers is
**byte-identical** to the same grid run in-process.
"""

import json

import pytest

from repro.api import (
    FLEET_ENV,
    RunHandle,
    RunRequest,
    RunStatus,
    Session,
    Settings,
)
from repro.core.runner import ExperimentEngine, ResultStore


class TestEngineConstruction:
    """The engine takes ``jobs`` and ``fleet`` as arguments, validated."""

    def test_defaults(self):
        engine = ExperimentEngine()
        assert (engine.jobs, engine.fleet) == (1, 0)

    @pytest.mark.parametrize("bad", [{"jobs": 0}, {"fleet": -1}])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentEngine(**bad)

    @pytest.mark.parametrize("kwargs", [{"plan": None}, {"kernel": "batched"},
                                        {"workers": 4}])
    def test_unknown_knob_kwargs_are_an_error(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            ExperimentEngine(ResultStore(None), **kwargs)

    def test_session_engine_takes_the_resolved_settings(self):
        with Session(jobs=2, fleet=0, env={}) as session:
            assert (session.engine.jobs, session.engine.fleet) == (2, 0)

    def test_fleet_env_var(self):
        assert Settings.resolve(env={FLEET_ENV: "3"}).fleet == 3
        assert Settings.resolve(env={}).fleet == 0
        # explicit beats environment, as everywhere in Settings
        assert Settings.resolve(fleet=1, env={FLEET_ENV: "9"}).fleet == 1


GRID = RunRequest(workloads=("nasa7",), configs=("reference", "ooo"))


class TestRunHandleInProcess:
    def test_submit_is_lazy_and_result_resolves(self):
        with Session(env={}) as session:
            handle = session.submit(GRID)
            assert isinstance(handle, RunHandle)
            assert handle.done() is False
            before = handle.status()
            assert isinstance(before, RunStatus)
            assert before.state == "pending"
            assert (before.total, before.completed) == (2, 0)
            assert session.engine.simulated == 0  # nothing ran yet

            grid = handle.result()
            assert session.engine.simulated == 2
            after = handle.status()
            assert after.done and after.state == "done"
            assert after.completed == after.total == 2
            assert handle.done() is True
            assert grid.get("nasa7", "ooo").to_dict() is not None
            assert "done: 2/2 points" in repr(handle)

    def test_run_is_submit_then_result(self):
        with Session(env={}) as one, Session(env={}) as two:
            assert (one.run(GRID).to_dict()
                    == two.submit(GRID).result().to_dict())

    def test_status_counts_warm_cache_points_before_computing(self, tmp_path):
        with Session(cache_dir=tmp_path, env={}) as warm:
            warm.run(GRID)
        with Session(cache_dir=tmp_path, env={}) as session:
            status = session.submit(GRID).status()
            assert status.state == "pending"  # cache occupancy, not "done"
            assert status.completed == status.total == 2

    def test_watch_timeout_is_documented_inapplicable_in_process(self):
        # in-process execution is synchronous on the calling thread: the
        # timeout cannot interrupt it and the run simply completes
        with Session(env={}) as session:
            status = session.submit(GRID).watch(timeout=0.000001)
            assert status.done

    def test_failed_compute_is_cached_and_reraised(self):
        with Session(env={}) as session:
            handle = session.submit(GRID)
            boom = RuntimeError("injected engine failure")

            def explode(spec):
                raise boom

            handle._engine = session.engine
            original = session.engine.run_spec
            session.engine.run_spec = explode
            try:
                with pytest.raises(RuntimeError, match="injected"):
                    handle.watch()
            finally:
                session.engine.run_spec = original
            assert handle.status().state == "failed"
            with pytest.raises(RuntimeError, match="injected"):
                handle.result()  # the cached error re-raises, never recomputes


class TestFleetParity:
    def test_fleet_grid_is_byte_identical_to_in_process(self, tmp_path):
        reference = Session(env={})
        try:
            expected = reference.run(GRID).to_dict()
        finally:
            reference.close()

        with Session(
            cache_dir=tmp_path / "fleet", fleet=1, env={},
        ) as session:
            assert session.engine.fleet == 1
            handle = session.submit(GRID)
            assert handle._batch is not None and len(handle._batch) == 2
            status = handle.watch(timeout=300)
            assert status.done
            actual = handle.result().to_dict()
            assert session.engine.fleet_points == 2
            summary = session.engine_summary()
            assert summary["fleet"] == {"workers": 1, "dispatched": 2}
            # the parent compiled the grid's one trace before enqueueing
            assert session.trace_store.generated == 1

        assert json.dumps(actual, sort_keys=True) == json.dumps(
            expected, sort_keys=True)
        # each result is kept once: the object the worker published
        root = tmp_path / "fleet"
        stored = [path.relative_to(root).parts[:2]
                  for path in root.rglob("*.json")]
        assert [where for where in stored if where != ("objects", "queue")] == [
            ("objects", "results")] * 2

    def test_fleet_session_serves_cache_hits_without_workers(self, tmp_path):
        root = tmp_path / "shared"
        with Session(cache_dir=root, env={}) as warm:
            warm.run(GRID)
        with Session(cache_dir=root, fleet=1, env={}) as session:
            handle = session.submit(GRID)
            # everything was cached: nothing to enqueue, no workers spawned
            assert handle._batch is None
            grid = handle.result()
            assert session.engine.fleet_points == 0
            assert session.engine.disk_hits == 2
            assert grid.get("nasa7", "ooo") is not None

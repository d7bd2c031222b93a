"""Tests for the compiled-trace memoisation (repro.trace.store).

Traces live in the ``traces/`` namespace of the cache directory's one
object-store bucket, beside the results.  The engine compiles none: the
process that simulates a point loads the trace from the bucket, or
compiles it and puts it there.
"""

import pickle
from pathlib import Path

import pytest

from repro.api import Session
from repro.core.config import ooo_config, reference_config
from repro.core.objectstore import OBJECT_SUBDIR, ObjectStore
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
)
from repro.core.simulator import simulate_point
from repro.fleet.worker import Worker
from repro.trace import store as store_mod
from repro.trace.store import TRACE_PREFIX, TRACE_STORE_VERSION, TraceStore, load_trace
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

#: the object name and key of trfd's ``tiny`` trace
TRFD_OBJECT = f"trfd-tiny-v{TRACE_STORE_VERSION}.pkl"
TRFD_KEY = f"{TRACE_PREFIX}/{TRFD_OBJECT}"


def _store(root):
    """A trace store on a fresh view of the bucket at ``root``."""
    return TraceStore(ObjectStore(root))


def _poison_compilation(monkeypatch):
    """Make every trace compilation in this process fail."""
    import repro.workloads.registry as registry

    def boom(*args, **kwargs):
        raise AssertionError("the trace was recompiled")

    monkeypatch.setattr(registry, "get_workload", boom)


def _count_compiles(monkeypatch):
    """Record every trace compilation in this process as (workload, scale)."""
    compiled = []
    real_trace = Workload.trace

    def counting_trace(self):
        compiled.append((self.name, self.scale))
        return real_trace(self)

    monkeypatch.setattr(Workload, "trace", counting_trace)
    return compiled


class TestTraceStoreBasics:
    def test_round_trip_preserves_trace(self, tmp_path):
        store = _store(tmp_path)
        trace = get_workload("trfd", "tiny").trace()
        store.put("trfd", "tiny", trace)
        assert list(store.objects.list()) == [TRFD_KEY]
        fresh = _store(tmp_path)
        loaded = fresh.get("trfd", "tiny")
        assert loaded is not None
        assert len(loaded) == len(trace)
        assert [i.opcode for i in loaded] == [i.opcode for i in trace]
        assert [i.address for i in loaded] == [i.address for i in trace]

    def test_miss_returns_none(self, tmp_path):
        assert _store(tmp_path).get("trfd", "tiny") is None

    def test_load_or_generate_compiles_once_then_loads(self, tmp_path, monkeypatch):
        compiled = _count_compiles(monkeypatch)
        store = _store(tmp_path)
        first = store.load_or_generate("trfd", "tiny")
        assert compiled == [("trfd", "tiny")]
        assert len(first) > 0
        fresh = _store(tmp_path)
        second = fresh.load_or_generate("trfd", "tiny")
        assert compiled == [("trfd", "tiny")]
        assert second is not first  # unpickled from the bucket
        assert len(second) == len(first)

    def test_warm_store_never_recompiles(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        store.load_or_generate("trfd", "tiny")
        _poison_compilation(monkeypatch)
        fresh = _store(tmp_path)
        assert fresh.load_or_generate("trfd", "tiny") is not None

    def test_corrupt_entry_is_dropped_and_regenerated(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        store.load_or_generate("trfd", "tiny")
        bucket = store.objects
        bucket.put(TRFD_KEY, bucket.get(TRFD_KEY)[:40])  # truncate mid-pickle
        fresh = _store(tmp_path)
        assert fresh.get("trfd", "tiny") is None
        assert not bucket.exists(TRFD_KEY)
        compiled = _count_compiles(monkeypatch)
        regenerated = fresh.load_or_generate("trfd", "tiny")
        assert compiled == [("trfd", "tiny")]
        assert len(regenerated) > 0
        assert _store(tmp_path).get("trfd", "tiny") is not None

    def test_version_mismatch_is_dropped(self, tmp_path):
        store = _store(tmp_path)
        trace = get_workload("trfd", "tiny").trace()
        store.put("trfd", "tiny", trace)
        payload = pickle.loads(store.objects.get(TRFD_KEY))
        payload["version"] = TRACE_STORE_VERSION + 1
        store.objects.put(TRFD_KEY, pickle.dumps(payload))
        assert _store(tmp_path).get("trfd", "tiny") is None
        assert not store.objects.exists(TRFD_KEY)

    def test_key_mismatch_is_dropped(self, tmp_path):
        # An entry claiming to be a different (workload, scale) never leaks
        # into the wrong simulation point.
        store = _store(tmp_path)
        trace = get_workload("trfd", "tiny").trace()
        store.put("trfd", "tiny", trace)
        bdna_key = f"{TRACE_PREFIX}/bdna-tiny-v{TRACE_STORE_VERSION}.pkl"
        store.objects.put(bdna_key, store.objects.get(TRFD_KEY))
        assert _store(tmp_path).get("bdna", "tiny") is None
        assert not store.objects.exists(bdna_key)

    def test_transient_read_error_is_a_miss_not_a_delete(self, tmp_path, monkeypatch):
        # an EIO while reading must not delete a valid trace object
        _store(tmp_path).load_or_generate("trfd", "tiny")
        entry = tmp_path / TRFD_KEY
        real_read_bytes = Path.read_bytes

        def flaky(self):
            if self == entry:
                raise OSError(5, "Input/output error")
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", flaky)
        assert _store(tmp_path).get("trfd", "tiny") is None
        monkeypatch.undo()
        assert entry.exists()
        assert _store(tmp_path).get("trfd", "tiny") is not None

    def test_gc_drops_stale_versions_and_temp_files(self, tmp_path):
        # Session.gc collects the traces namespace of the session's bucket
        with Session(cache_dir=tmp_path, env={}) as session:
            session.trace_store.load_or_generate("trfd", "tiny")
            traces = tmp_path / OBJECT_SUBDIR / TRACE_PREFIX
            (traces / f"bdna-tiny-v{TRACE_STORE_VERSION - 1}.pkl").write_bytes(b"x")
            (traces / f".{TRFD_OBJECT}.1234.deadbeef.tmp").write_bytes(b"x")
            assert session.gc() == {"results": (0, 0), "traces": (1, 2)}
            assert session.gc()["traces"] == (1, 0)
            assert [path.name for path in traces.iterdir()] == [TRFD_OBJECT]
            assert session.trace_store.get("trfd", "tiny") is not None
        # a bucket that was never written reports nothing to do
        assert _store(tmp_path / "missing").gc() == (0, 0)

    def test_load_trace_unpickles_once_per_process(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        store.load_or_generate("trfd", "tiny")

        real_get = store_mod.TraceStore.get
        loads = {"count": 0}

        def counting_get(self, workload, scale):
            loads["count"] += 1
            return real_get(self, workload, scale)

        monkeypatch.setattr(store_mod.TraceStore, "get", counting_get)
        first = load_trace("trfd", "tiny", str(tmp_path))
        second = load_trace("trfd", "tiny", str(tmp_path))
        assert first is second  # served from the per-process memo
        assert loads["count"] <= 1

    def test_load_trace_without_a_bucket_is_the_workloads_memo(self):
        assert load_trace("trfd", "tiny") is get_workload("trfd", "tiny").trace()


class TestEngineTraceMemoisation:
    def test_engine_keeps_traces_in_the_result_stores_bucket(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExperimentEngine(store)
        engine.result("trfd", ooo_config(), scale="tiny")
        assert store.backend.objects.exists(TRFD_KEY)
        with Session(cache_dir=tmp_path, env={}) as session:
            assert session.trace_store.objects is session.store.backend.objects

    def test_memory_only_engine_has_no_trace_store(self):
        assert ResultStore().bucket_root is None
        with Session(env={}) as session:
            assert session.trace_store is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_compiles_each_workload_trace_at_most_once(
        self, tmp_path, monkeypatch, jobs
    ):
        # The engine compiles no trace itself: the process that simulates
        # a point compiles or loads its trace once.  In-process (jobs=1)
        # that is each (workload, scale) exactly once, however many grid
        # points need it.
        compiled = _count_compiles(monkeypatch)
        engine = ExperimentEngine(ResultStore(tmp_path), jobs=jobs)
        spec = ExperimentSpec.grid(
            "cold", ["trfd", "bdna"],
            [reference_config(), ooo_config(), ooo_config(phys_vregs=32)], "tiny")
        try:
            results = engine.run_spec(spec)
        finally:
            engine.close()  # the jobs=2 pool must not outlive the test
        assert len(results) == 6
        assert engine.simulated == 6
        if jobs == 1:
            assert sorted(compiled) == [("bdna", "tiny"), ("trfd", "tiny")]
        # one bucket: results and traces, nothing beside it
        assert [path.name for path in tmp_path.iterdir()] == [OBJECT_SUBDIR]
        bucket = tmp_path / OBJECT_SUBDIR
        assert sorted(path.name for path in bucket.iterdir()) == ["results", "traces"]
        assert sorted(path.name for path in (bucket / "traces").iterdir()) == [
            f"bdna-tiny-v{TRACE_STORE_VERSION}.pkl", TRFD_OBJECT]
        assert len(list((bucket / "results").rglob("*.json"))) == 6
        # a second engine (fresh process, in spirit) simulates two new
        # points from the stored traces and compiles nothing
        store_mod._load_or_generate_cached.cache_clear()
        _poison_compilation(monkeypatch)
        warm = ExperimentEngine(ResultStore(tmp_path), jobs=jobs)
        try:
            warm.run_spec(ExperimentSpec.grid(
                "warm", ["trfd", "bdna"], [ooo_config(phys_vregs=64)], "tiny"))
        finally:
            warm.close()
        assert warm.simulated == 2

    def test_worker_entry_point_loads_from_store(self, tmp_path, monkeypatch):
        # simulate_point with a bucket root must use the memoised trace,
        # not the compiler: poison compilation and check the point still runs.
        _store(tmp_path).load_or_generate("trfd", "tiny")
        _poison_compilation(monkeypatch)
        point = ExperimentPoint("trfd", "tiny", ooo_config())
        assert simulate_point(point, str(tmp_path)).cycles > 0
        # sanity: without the trace store the poison does fire
        with pytest.raises(AssertionError):
            simulate_point(point, None)

    def test_fleet_workers_compile_or_load_the_trace(self, tmp_path, monkeypatch):
        # the driver enqueues without compiling; the first worker compiles
        # the trace and puts it in the bucket, and a second worker on the
        # same cache dir only loads it
        engine = ExperimentEngine(ResultStore(tmp_path))
        points = [ExperimentPoint("trfd", "tiny", config)
                  for config in (ooo_config(), reference_config())]
        with monkeypatch.context() as driver:
            _poison_compilation(driver)
            assert len(engine.submit_fleet(points)) == 2
        compiled = _count_compiles(monkeypatch)
        first = Worker(tmp_path, worker_id="compiles", max_tasks=1, poll_s=0.05)
        assert first.run() == 1
        assert (first.completed, first.failed) == (1, 0)
        assert compiled == [("trfd", "tiny")]
        assert (tmp_path / OBJECT_SUBDIR / TRFD_KEY).is_file()
        assert sum(ResultStore(tmp_path).contains(point) for point in points) == 1
        # the second worker is a fresh process, in spirit
        store_mod._load_or_generate_cached.cache_clear()
        _poison_compilation(monkeypatch)
        second = Worker(tmp_path, worker_id="loads", max_tasks=1, poll_s=0.05)
        assert second.run() == 1
        assert (second.completed, second.failed) == (1, 0)
        assert all(ResultStore(tmp_path).get(point) is not None for point in points)

    def test_parallel_results_match_serial_with_trace_store(self, tmp_path):
        spec = ExperimentSpec.grid(
            "par", ["trfd"], [reference_config(), ooo_config()], "tiny")
        serial = ExperimentEngine(
            ResultStore(tmp_path / "a"), jobs=1).run_spec(spec)
        engine = ExperimentEngine(ResultStore(tmp_path / "b"), jobs=2)
        try:
            parallel = engine.run_spec(spec)
        finally:
            engine.close()
        assert set(serial) == set(parallel)
        for point in serial:
            assert serial[point].stats.to_dict() == parallel[point].stats.to_dict()
        # pool workers return result objects; the stored bytes are the same
        objects = {
            side: {path.name: path.read_bytes() for path in
                   (tmp_path / side / OBJECT_SUBDIR / "results").rglob("*.json")}
            for side in ("a", "b")
        }
        assert len(objects["a"]) == 2
        assert objects["a"] == objects["b"]

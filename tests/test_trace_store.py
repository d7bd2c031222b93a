"""Tests for the on-disk compiled-trace memoisation (repro.trace.store)."""

import pickle

import pytest

from repro.core.config import ooo_config, reference_config
from repro.core.runner import (
    TRACE_SUBDIR,
    ExperimentEngine,
    ExperimentSpec,
    ResultStore,
    _simulate_point,
)
from repro.trace.store import TRACE_STORE_VERSION, TraceStore
from repro.workloads.registry import get_workload


class TestTraceStoreBasics:
    def test_round_trip_preserves_trace(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = get_workload("trfd", "tiny").trace()
        store.put("trfd", "tiny", trace)
        fresh = TraceStore(tmp_path)
        loaded = fresh.get("trfd", "tiny")
        assert loaded is not None
        assert fresh.disk_hits == 1
        assert len(loaded) == len(trace)
        assert [i.opcode for i in loaded] == [i.opcode for i in trace]
        assert [i.address for i in loaded] == [i.address for i in trace]

    def test_miss_returns_none(self, tmp_path):
        assert TraceStore(tmp_path).get("trfd", "tiny") is None

    def test_load_or_generate_compiles_once_then_loads(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.load_or_generate("trfd", "tiny")
        assert store.generated == 1
        assert len(first) > 0
        fresh = TraceStore(tmp_path)
        second = fresh.load_or_generate("trfd", "tiny")
        assert fresh.generated == 0
        assert fresh.disk_hits == 1
        assert len(second) == len(first)

    def test_warm_store_never_recompiles(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        store.load_or_generate("trfd", "tiny")

        import repro.workloads.registry as registry

        def boom(*args, **kwargs):  # any compile attempt is a failure
            raise AssertionError("trace was recompiled despite a warm store")

        monkeypatch.setattr(registry, "get_workload", boom)
        fresh = TraceStore(tmp_path)
        assert fresh.load_or_generate("trfd", "tiny") is not None

    def test_corrupt_entry_is_dropped_and_regenerated(self, tmp_path):
        store = TraceStore(tmp_path)
        store.load_or_generate("trfd", "tiny")
        path = next(tmp_path.glob("*.trace.pkl"))
        path.write_bytes(path.read_bytes()[:40])  # truncate mid-pickle
        fresh = TraceStore(tmp_path)
        assert fresh.get("trfd", "tiny") is None
        assert not path.exists()
        regenerated = fresh.load_or_generate("trfd", "tiny")
        assert fresh.generated == 1
        assert len(regenerated) > 0

    def test_version_mismatch_is_dropped(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = get_workload("trfd", "tiny").trace()
        store.put("trfd", "tiny", trace)
        path = next(tmp_path.glob("*.trace.pkl"))
        payload = pickle.loads(path.read_bytes())
        payload["version"] = TRACE_STORE_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert TraceStore(tmp_path).get("trfd", "tiny") is None
        assert not path.exists()

    def test_key_mismatch_is_dropped(self, tmp_path):
        # An entry claiming to be a different (workload, scale) never leaks
        # into the wrong simulation point.
        store = TraceStore(tmp_path)
        trace = get_workload("trfd", "tiny").trace()
        store.put("trfd", "tiny", trace)
        src = next(tmp_path.glob("*.trace.pkl"))
        dst = tmp_path / f"bdna-tiny-v{TRACE_STORE_VERSION}.trace.pkl"
        dst.write_bytes(src.read_bytes())
        assert TraceStore(tmp_path).get("bdna", "tiny") is None
        assert not dst.exists()

    def test_ensure_reports_compilation(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.ensure("trfd", "tiny") is True
        assert store.ensure("trfd", "tiny") is False
        assert store.generated == 1

    def test_gc_drops_stale_versions_and_temp_files(self, tmp_path):
        store = TraceStore(tmp_path)
        store.ensure("trfd", "tiny")
        (tmp_path / f"bdna-tiny-v{TRACE_STORE_VERSION + 1}.trace.pkl").write_bytes(b"x")
        (tmp_path / ".trfd.trace.pkl.1234.deadbeef.tmp").write_bytes(b"x")
        assert store.gc() == (1, 2)
        assert store.gc() == (1, 0)
        assert store.get("trfd", "tiny") is not None
        # a store whose directory never existed reports nothing to do
        assert TraceStore(tmp_path / "missing").gc() == (0, 0)

    def test_ensure_repairs_corrupt_entries(self, tmp_path):
        # ensure() must validate by loading: a corrupt leftover file would
        # otherwise pass a bare existence check and defeat the prewarm,
        # making every worker recompile the trace.
        store = TraceStore(tmp_path)
        store.ensure("trfd", "tiny")
        path = next(tmp_path.glob("*.trace.pkl"))
        path.write_bytes(b"\x80corrupt")
        fresh = TraceStore(tmp_path)
        assert fresh.ensure("trfd", "tiny") is True  # recompiled in parent
        assert fresh.get("trfd", "tiny") is not None

    def test_load_memoised_unpickles_once_per_process(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        store.ensure("trfd", "tiny")

        import repro.trace.store as store_mod

        real_get = store_mod.TraceStore.get
        loads = {"count": 0}

        def counting_get(self, workload, scale):
            loads["count"] += 1
            return real_get(self, workload, scale)

        monkeypatch.setattr(store_mod.TraceStore, "get", counting_get)
        first = TraceStore(tmp_path).load_memoised("trfd", "tiny")
        second = TraceStore(tmp_path).load_memoised("trfd", "tiny")
        assert first is second  # served from the per-process memo
        assert loads["count"] <= 1


class TestEngineTraceMemoisation:
    def test_engine_with_cache_dir_gets_a_trace_store(self, tmp_path):
        engine = ExperimentEngine(ResultStore(tmp_path))
        assert engine.trace_store is not None
        assert engine.trace_store.cache_dir == tmp_path / TRACE_SUBDIR

    def test_memory_only_engine_has_no_trace_store(self):
        assert ExperimentEngine().trace_store is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_compiles_each_workload_trace_at_most_once(self, tmp_path, jobs):
        # The acceptance criterion: a cold parallel sweep pre-warms the
        # trace store in the parent, so each (workload, scale) is compiled
        # at most once no matter how many workers or grid points need it.
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
        assert engine.trace_store.generated <= 2  # at most once per workload
        assert engine.trace_store.contains("trfd", "tiny")
        assert engine.trace_store.contains("bdna", "tiny")
        # a second engine (fresh process, in spirit) loads, never compiles
        warm = ExperimentEngine(ResultStore(tmp_path), jobs=jobs)
        warm.run_spec(spec)
        assert warm.trace_store.generated == 0

    def test_worker_entry_point_loads_from_store(self, tmp_path, monkeypatch):
        # _simulate_point with a trace_dir must use the memoised trace, not
        # the compiler: poison compilation and check the point still runs.
        from repro.core.runner import ExperimentPoint

        parent = TraceStore(tmp_path)
        parent.ensure("trfd", "tiny")

        import repro.core.simulator as simulator_mod
        import repro.workloads.registry as registry

        def boom(*args, **kwargs):
            raise AssertionError("worker recompiled the trace")

        monkeypatch.setattr(registry, "get_workload", boom)
        monkeypatch.setattr(simulator_mod, "get_workload", boom)
        point = ExperimentPoint("trfd", "tiny", ooo_config())
        payload = _simulate_point(point, str(tmp_path))
        assert payload["stats"]["cycles"] > 0
        # sanity: without the trace store the poison does fire
        with pytest.raises(AssertionError):
            _simulate_point(point, None)

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

    def test_summary_mentions_traces(self, tmp_path):
        engine = ExperimentEngine(ResultStore(tmp_path))
        engine.result("trfd", ooo_config(), scale="tiny")
        assert "traces:" in engine.summary()

    def test_prewarm_validates_each_trace_once_per_engine(self, tmp_path, monkeypatch):
        # Successive exhibit batches on one engine must not re-ensure (and
        # re-unpickle) traces the engine already validated.
        engine = ExperimentEngine(ResultStore(tmp_path))
        calls = []
        real_ensure = engine.trace_store.ensure

        def counting_ensure(workload, scale):
            calls.append((workload, scale))
            return real_ensure(workload, scale)

        monkeypatch.setattr(engine.trace_store, "ensure", counting_ensure)
        engine.result("trfd", ooo_config(), scale="tiny")
        engine.result("trfd", ooo_config(phys_vregs=32), scale="tiny")
        engine.result("trfd", reference_config(), scale="tiny")
        assert calls == [("trfd", "tiny")]

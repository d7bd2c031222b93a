"""Differential & property tests for the pluggable ResultStore backends.

Both production backends (sharded JSON, SQLite) are driven through the same
scenarios — round-trips, process-restart simulation, corruption tolerance,
garbage collection — plus hypothesis-generated results to probe the
serialisation path with adversarial statistics.
"""

import json
import sqlite3
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.stats import MemoryTraffic, SimStats
from repro.core.config import ooo_config, reference_config
from repro.core.results import SimulationResult
from repro.core.runner import ExperimentEngine, ExperimentPoint, ExperimentSpec, ResultStore
from repro.core.store import (
    BACKEND_NAMES,
    STORE_ENV,
    STORE_VERSION,
    ShardedJSONBackend,
    SQLiteBackend,
    default_backend_kind,
    make_backend,
)

BACKENDS = list(BACKEND_NAMES)


def _point(regs=16, latency=50, workload="trfd", scale="tiny"):
    return ExperimentPoint(workload, scale, ooo_config(phys_vregs=regs, latency=latency))


def _result(point, cycles=1000, **stat_kwargs):
    stats = SimStats(cycles=cycles, **stat_kwargs)
    return SimulationResult(
        workload=point.workload,
        config_name=point.config.name,
        params=point.config.params,
        stats=stats,
    )


def _entry_file(cache_dir, point):
    files = list(cache_dir.glob(f"??/*-{point.fingerprint()[:16]}.json"))
    assert len(files) == 1
    return files[0]


def _object_entry_file(cache_dir, point):
    from repro.core.objectstore import OBJECT_SUBDIR, RESULT_PREFIX

    key = point.fingerprint()
    path = cache_dir / OBJECT_SUBDIR / RESULT_PREFIX / key[:2] / f"{key}.json"
    assert path.is_file()
    return path


def _corrupt_entry(backend_kind, cache_dir, point, text="{truncat"):
    """Damage the stored payload for ``point`` in a backend-appropriate way."""
    if backend_kind == "json":
        _entry_file(cache_dir, point).write_text(text, encoding="utf-8")
    elif backend_kind == "object":
        _object_entry_file(cache_dir, point).write_text(text, encoding="utf-8")
    else:
        with sqlite3.connect(cache_dir / SQLiteBackend.DB_NAME) as conn:
            conn.execute(
                "UPDATE results SET payload = ? WHERE fingerprint = ?",
                (text, point.fingerprint()),
            )
            conn.commit()


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_json(self, monkeypatch, tmp_path):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert default_backend_kind() == "json"
        assert isinstance(ResultStore(tmp_path).backend, ShardedJSONBackend)

    def test_env_selects_sqlite(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, "sqlite")
        store = ResultStore(tmp_path)
        assert isinstance(store.backend, SQLiteBackend)
        store.close()

    def test_unknown_env_backend_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, "blockchain")
        with pytest.raises(ReproError, match="blockchain"):
            ResultStore(tmp_path)

    def test_unknown_explicit_backend_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="available"):
            make_backend("memcached", tmp_path)

    def test_backend_instance_accepted(self, tmp_path):
        backend = ShardedJSONBackend(tmp_path)
        store = ResultStore(backend=backend)
        assert store.backend is backend
        assert store.cache_dir == tmp_path

    def test_memory_only_store_has_no_backend(self):
        store = ResultStore()
        assert store.backend is None
        assert store.describe() == "memory"
        assert store.gc() == (0, 0)

    def test_backend_kind_without_cache_dir_rejected(self):
        # A caller explicitly asking for persistence must not silently get
        # a memory-only store.
        with pytest.raises(ReproError, match="cache directory"):
            ResultStore(backend="sqlite")


# ---------------------------------------------------------------------------
# Differential backend battery: every scenario runs against both backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendContract:
    def test_round_trip_preserves_payload(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        point = _point()
        result = _result(point, cycles=1234, rename_stall_cycles=7)
        store.put(point, result)
        fresh = ResultStore(tmp_path, backend=backend)
        fetched = fresh.get(point)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        assert fresh.disk_hits == 1

    def test_entries_survive_restart_and_clear_memory(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        point = _point()
        store.put(point, _result(point))
        store.clear_memory()
        assert store.get(point) is not None
        fresh = ResultStore(tmp_path, backend=backend)
        assert fresh.contains(point)
        assert fresh.get(point) is not None

    def test_corrupt_entry_degrades_to_miss(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        point = _point()
        store.put(point, _result(point))
        store.close()
        _corrupt_entry(backend, tmp_path, point)
        fresh = ResultStore(tmp_path, backend=backend)
        assert fresh.get(point) is None
        # the broken entry is gone: contains() agrees and a re-put heals it
        assert not fresh.contains(point)
        fresh.put(point, _result(point))
        fresh.clear_memory()
        assert fresh.get(point) is not None

    def test_stale_params_are_dropped_on_get(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        point = _point()
        store.put(point, _result(point))
        store.close()
        payload = {
            "version": STORE_VERSION,
            "key": {"fingerprint": point.fingerprint()},
            "result": {"workload": "trfd", "config_name": "ooo",
                       "params": {"kind": "ooo", "num_phys_vregs": 4},  # invalid
                       "stats": {}},
        }
        _corrupt_entry(backend, tmp_path, point, json.dumps(payload))
        fresh = ResultStore(tmp_path, backend=backend)
        assert fresh.get(point) is None

    def test_gc_keeps_valid_and_evicts_invalid(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        good, bad = _point(regs=16), _point(regs=32)
        store.put(good, _result(good))
        store.put(bad, _result(bad))
        store.close()
        _corrupt_entry(backend, tmp_path, bad)
        fresh = ResultStore(tmp_path, backend=backend)
        kept, evicted = fresh.gc()
        assert (kept, evicted) == (1, 1)
        assert fresh.get(good) is not None
        assert not fresh.contains(bad)
        # a second gc finds nothing left to evict
        assert fresh.gc() == (1, 0)

    def test_gc_evicts_old_store_versions(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        point = _point()
        store.put(point, _result(point))
        store.close()
        path_payload = {
            "version": STORE_VERSION + 1,
            "key": {"fingerprint": point.fingerprint(), "workload": "trfd",
                    "scale": "tiny", "config_name": point.config.name},
            "result": _result(point).to_dict(),
        }
        _corrupt_entry(backend, tmp_path, point, json.dumps(path_payload))
        fresh = ResultStore(tmp_path, backend=backend)
        assert fresh.gc() == (0, 1)

    def test_delete_then_get_misses(self, backend, tmp_path):
        store = ResultStore(tmp_path, backend=backend)
        point = _point()
        store.put(point, _result(point))
        store.backend.delete(point.fingerprint(), point)
        store.clear_memory()
        assert store.get(point) is None

    def test_engine_warm_start_simulates_nothing(self, backend, tmp_path):
        spec = ExperimentSpec.grid(
            "warm", ["trfd"], [reference_config(), ooo_config()], "tiny")
        cold = ExperimentEngine(ResultStore(tmp_path, backend=backend))
        cold.run_spec(spec)
        assert cold.simulated == 2
        warm = ExperimentEngine(ResultStore(tmp_path, backend=backend))
        warm.run_spec(spec)
        assert warm.simulated == 0
        assert warm.disk_hits == len(spec)


# ---------------------------------------------------------------------------
# JSON-backend specifics: sharding and the index file
# ---------------------------------------------------------------------------


class TestShardedLayout:
    def test_entries_shard_by_fingerprint_prefix(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        points = [_point(regs=r, latency=lat) for r in (9, 16, 32, 64)
                  for lat in (1, 50, 100)]
        for point in points:
            store.put(point, _result(point))
        for point in points:
            expected = tmp_path / point.fingerprint()[:2]
            assert list(expected.glob(f"*-{point.fingerprint()[:16]}.json"))

    def test_flush_writes_index(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, _result(point))
        store.flush()
        index = json.loads((tmp_path / "_index.json").read_text(encoding="utf-8"))
        assert index["version"] == STORE_VERSION
        entry = index["entries"][point.fingerprint()]
        assert entry["key"]["workload"] == "trfd"
        assert (tmp_path / entry["path"]).is_file()

    def test_gc_rebuilds_index(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        good, bad = _point(regs=16), _point(regs=32)
        store.put(good, _result(good))
        store.put(bad, _result(bad))
        store.flush()
        _corrupt_entry("json", tmp_path, bad)
        store.gc()
        index = json.loads((tmp_path / "_index.json").read_text(encoding="utf-8"))
        assert set(index["entries"]) == {good.fingerprint()}

    def test_gc_removes_foreign_files_exactly_once(self, tmp_path):
        # A file that is not a store entry at all (undecodable, or JSON
        # without a key block) must be evicted by path — once — and must
        # never crash the index rebuild.
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, _result(point))
        shard = tmp_path / point.fingerprint()[:2]
        (shard / "notes.json").write_text("not even json", encoding="utf-8")
        (shard / "keyless.json").write_text('{"version": 1}', encoding="utf-8")
        assert store.gc() == (1, 2)
        assert not (shard / "notes.json").exists()
        assert not (shard / "keyless.json").exists()
        assert store.gc() == (1, 0)  # nothing left to re-count
        index = json.loads((tmp_path / "_index.json").read_text(encoding="utf-8"))
        assert set(index["entries"]) == {point.fingerprint()}

    def test_gc_sweeps_temp_and_legacy_files(self, tmp_path):
        # Crashed-writer temp files and pre-sharding flat-layout entries
        # are dead bytes the backend never reads; gc reclaims them.
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, _result(point))
        shard = tmp_path / point.fingerprint()[:2]
        (shard / ".entry.json.1234.deadbeef.tmp").write_text("{", encoding="utf-8")
        (tmp_path / ".._index.json.1234.deadbeef.tmp").write_text("{", encoding="utf-8")
        (tmp_path / "trfd-tiny-ooo-0011223344556677.json").write_text(
            "{}", encoding="utf-8")  # legacy flat-layout entry
        assert store.gc() == (1, 3)
        assert store.gc() == (1, 0)
        assert store.get(point) is not None

    def test_gc_survives_incomplete_key_blocks(self, tmp_path):
        # A valid result whose key block lost fields (older writer) must
        # neither crash gc nor be evicted: the payload still validates.
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, _result(point))
        path = _entry_file(tmp_path, point)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["key"] = {"fingerprint": point.fingerprint()}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.gc() == (1, 0)

    def test_transient_read_error_is_a_miss_not_a_delete(self, tmp_path, monkeypatch):
        # An EIO/NFS hiccup while reading must degrade to a miss without
        # deleting a perfectly valid entry (only *decode* failures may).
        from pathlib import Path

        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, _result(point))
        store.clear_memory()
        entry = _entry_file(tmp_path, point)
        real_read_text = Path.read_text

        def flaky(self, *args, **kwargs):
            if self == entry:
                raise OSError(5, "Input/output error")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky)
        assert store.get(point) is None
        monkeypatch.undo()
        assert entry.exists()  # the entry survived the bad read
        assert store.get(point) is not None

    def test_unreadable_index_is_ignored(self, tmp_path):
        (tmp_path / "_index.json").write_text("{nope", encoding="utf-8")
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, _result(point))
        store.flush()
        index = json.loads((tmp_path / "_index.json").read_text(encoding="utf-8"))
        assert point.fingerprint() in index["entries"]


class TestSQLiteSpecifics:
    def test_concurrent_stores_share_one_database(self, tmp_path):
        a = ResultStore(tmp_path, backend="sqlite")
        b = ResultStore(tmp_path, backend="sqlite")
        pa, pb = _point(regs=16), _point(regs=32)
        a.put(pa, _result(pa))
        b.put(pb, _result(pb))
        assert a.get(pb) is not None
        assert b.get(pa) is not None
        a.close()
        b.close()
        assert (tmp_path / SQLiteBackend.DB_NAME).is_file()

    def test_wal_mode_enabled(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        mode = store.backend._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_transient_open_errors_never_delete_the_database(self, tmp_path, monkeypatch):
        # OperationalError (locked past the busy timeout, I/O hiccup) may
        # mean another process holds a healthy database: never self-heal
        # by deleting it.
        store = ResultStore(tmp_path, backend="sqlite")
        point = _point()
        store.put(point, _result(point))
        store.close()

        def locked(self):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(SQLiteBackend, "_open", locked)
        with pytest.raises(ReproError, match="database is locked"):
            ResultStore(tmp_path, backend="sqlite")
        monkeypatch.undo()
        healthy = ResultStore(tmp_path, backend="sqlite")
        assert healthy.get(point) is not None  # data survived the failure
        healthy.close()

    def test_corrupt_database_self_heals(self, tmp_path):
        # A results.db that is not a SQLite database (killed mid-write,
        # disk-full) is just a worthless cache: drop it and start fresh
        # instead of wedging every command behind a manual delete.
        (tmp_path / SQLiteBackend.DB_NAME).write_bytes(b"\x00not a database")
        store = ResultStore(tmp_path, backend="sqlite")
        point = _point()
        store.put(point, _result(point))
        store.clear_memory()
        assert store.get(point) is not None
        store.close()

    def test_reconfiguring_default_engine_closes_previous_store(self, tmp_path):
        # Repeatedly installing a default engine (one per CLI invocation,
        # many per test session) must not leak live SQLite connections.
        from repro.core.runner import ExperimentEngine, set_engine
        from repro.core.settings import ExecutionPlan

        def install() -> ExperimentEngine:
            engine = ExperimentEngine(ResultStore(tmp_path, backend="sqlite"),
                                      plan=ExecutionPlan())
            set_engine(engine)
            return engine

        try:
            first = install()
            install()
            with pytest.raises(sqlite3.ProgrammingError):
                first.store.backend._conn.execute("SELECT 1")
        finally:
            set_engine(None)


# ---------------------------------------------------------------------------
# Property tests: hypothesis-generated results through both backends
# ---------------------------------------------------------------------------


def _intervals(draw):
    bounds = draw(st.lists(st.integers(0, 500), min_size=0, max_size=8,
                           unique=True).map(sorted))
    if len(bounds) % 2:
        bounds = bounds[:-1]
    return [[bounds[i], bounds[i + 1]] for i in range(0, len(bounds), 2)]


@st.composite
def simulation_results(draw):
    """A (point, result) pair with adversarial-but-valid statistics."""
    regs = draw(st.sampled_from([9, 16, 32, 64]))
    latency = draw(st.sampled_from([1, 20, 50, 70, 100]))
    point = _point(regs=regs, latency=latency,
                   workload=draw(st.sampled_from(["trfd", "bdna", "dyfesm"])))
    counters = st.integers(min_value=0, max_value=10**9)
    stats = SimStats(
        cycles=draw(st.integers(min_value=1, max_value=10**9)),
        scalar_instructions=draw(counters),
        vector_instructions=draw(counters),
        branch_instructions=draw(counters),
        vector_operations=draw(counters),
        address_port_busy_cycles=draw(counters),
        branch_mispredictions=draw(counters),
        branches_predicted=draw(counters),
        rename_stall_cycles=draw(counters),
        rob_stall_cycles=draw(counters),
        queue_stall_cycles=draw(counters),
        loads_eliminated=draw(counters),
        scalar_loads_eliminated=draw(counters),
        stores_executed_at_head=draw(counters),
        traffic=MemoryTraffic(
            vector_load_ops=draw(counters),
            vector_store_ops=draw(counters),
            scalar_load_ops=draw(counters),
            scalar_store_ops=draw(counters),
        ),
    )
    for unit in ("FU1", "FU2", "MEM"):
        for start, end in _intervals(draw):
            stats.record_unit_busy(unit, start, end)
    return point, SimulationResult(
        workload=point.workload,
        config_name=point.config.name,
        params=point.config.params,
        stats=stats,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=simulation_results())
    def test_round_trip_preserves_to_dict(self, backend, tmp_path, data):
        point, result = data
        root = tmp_path / uuid.uuid4().hex
        store = ResultStore(root, backend=backend)
        store.put(point, result)
        # survives a simulated process restart (fresh store instance)
        store.clear_memory()
        fetched = store.get(point)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        store.close()
        fresh = ResultStore(root, backend=backend)
        refetched = fresh.get(point)
        assert refetched is not None
        assert refetched.to_dict() == result.to_dict()
        fresh.close()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=simulation_results(),
           cut=st.integers(min_value=0, max_value=60),
           junk=st.sampled_from(["", "{", "null", "[1,2", "\x00\x00"]))
    def test_truncated_entries_miss_then_resimulate(self, backend, tmp_path,
                                                    data, cut, junk):
        point, result = data
        root = tmp_path / uuid.uuid4().hex
        store = ResultStore(root, backend=backend)
        store.put(point, result)
        store.close()
        text = json.dumps(result.to_dict())[:cut] + junk
        _corrupt_entry(backend, root, point, text)
        fresh = ResultStore(root, backend=backend)
        # never raises: a damaged entry is a miss...
        assert fresh.get(point) is None
        # ...and the engine transparently re-simulates and re-stores it
        engine = ExperimentEngine(fresh)
        healed = engine.run_point(point)
        assert engine.simulated == 1
        assert healed.cycles > 0
        fresh.clear_memory()
        assert fresh.get(point) is not None
        fresh.close()

"""Contract & property tests for the result store's object-store layer.

Every scenario runs through :class:`~repro.core.runner.ResultStore` on a
cache directory — round-trips, process-restart simulation, corruption
tolerance, garbage collection, sharing one directory with other stores and
fleet workers, caches left by retired store layouts — plus
hypothesis-generated results to probe the serialisation path with
adversarial statistics.  A fresh ``ResultStore`` on the same directory
stands for a process restart.
"""

import json
import pickle
import sqlite3
import uuid
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.common.params import params_to_dict
from repro.common.stats import VECTOR_UNIT_ORDER, MemoryTraffic, SimStats
from repro.core.config import ooo_config, reference_config
from repro.core.objectstore import (
    OBJECT_SUBDIR,
    RESULT_PREFIX,
    STORE_VERSION,
    ObjectStoreBackend,
)
from repro.core.results import SimulationResult
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
)
from repro.workloads.registry import get_workload


def _point(regs=16, latency=50, workload="trfd", scale="tiny"):
    return ExperimentPoint(workload, scale, ooo_config(phys_vregs=regs, latency=latency))


def _result(point, cycles=1000, **stat_kwargs):
    stat_kwargs.setdefault("unit_busy", {"FU2": 600, "FU1": 300, "MEM": 700})
    stat_kwargs.setdefault(
        "unit_states", {(True, False, True): 400, (False, False, False): 600})
    stats = SimStats(cycles=cycles, **stat_kwargs)
    return SimulationResult(
        workload=point.workload,
        config_name=point.config.name,
        params=point.config.params,
        stats=stats,
    )


def result_object(point, result):
    """The bytes of ``point``'s result object, built from the documented layout.

    Whoever writes the object — the engine's store or a fleet worker —
    must write exactly these bytes.
    """
    return json.dumps({
        "version": STORE_VERSION,
        "key": {
            "workload": point.workload,
            "scale": point.scale,
            "config_name": point.config.name,
            "fingerprint": point.fingerprint(),
            "params": params_to_dict(point.config.params),
        },
        "result": result.to_dict(),
    }).encode("utf-8")


def _entry_file(cache_dir, point):
    key = point.fingerprint()
    path = cache_dir / OBJECT_SUBDIR / RESULT_PREFIX / key[:2] / f"{key}.json"
    assert path.is_file()
    return path


def _corrupt_entry(cache_dir, point, text="{truncat"):
    """Overwrite the stored object for ``point`` with ``text``."""
    _entry_file(cache_dir, point).write_text(text, encoding="utf-8")


def _rewrite_entry(cache_dir, point, edit):
    """Replace the stored object for ``point`` with ``edit(payload)``."""
    path = _entry_file(cache_dir, point)
    data = edit(json.loads(path.read_bytes()))
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))


def _replaced(data):
    """An edit that discards the payload and writes ``data`` verbatim."""
    return lambda payload: data


_REMOVE = object()


def _edited(*path, value=_REMOVE):
    """An edit that sets (or, without ``value``, removes) one payload field."""
    def edit(payload):
        target = payload
        for name in path[:-1]:
            target = target[name]
        if value is _REMOVE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return json.dumps(payload)
    return edit


#: entries that do not decode to a JSON object at all
UNDECODABLE_ENTRIES = {
    "{truncat": _replaced("{truncat"),
    "null": _replaced("null"),
    "list": _replaced("[]"),
    "number": _replaced("3"),
    "string": _replaced('"entry"'),
    "bool": _replaced("true"),
    "empty": _replaced(""),
    "not-utf8": _replaced(b"\xff\xfe{}"),
}

#: JSON objects that are not a valid current-version entry
INVALID_PAYLOADS = {
    "no-version": _edited("version"),
    "future-version": _edited("version", value=STORE_VERSION + 1),
    "string-version": _edited("version", value=str(STORE_VERSION)),
    "no-result": _edited("result"),
    "result-not-an-object": _edited("result", value=[]),
    "no-params": _edited("result", "params"),
    "unknown-machine-kind": _edited("result", "params", "kind", value="warp"),
    "invalid-params": _edited("result", "params", "num_phys_vregs", value=4),
    "traffic-not-an-object": _edited("result", "stats", "traffic", value=5),
    # every counter must be a non-negative int, and a bool is not one
    "cycles-null": _edited("result", "stats", "cycles", value=None),
    "cycles-string": _edited("result", "stats", "cycles", value="123"),
    "cycles-bool": _edited("result", "stats", "cycles", value=True),
    "cycles-negative": _edited("result", "stats", "cycles", value=-5),
    "no-cycles": _edited("result", "stats", "cycles"),
    "unknown-stats-field": _edited("result", "stats", "unit_busy_pairs", value=[]),
    "vector-operations-float": _edited("result", "stats", "vector_operations", value=1.5),
    "traffic-counter-string": _edited(
        "result", "stats", "traffic", "vector_load_ops", value="x"),
    "no-traffic-counter": _edited("result", "stats", "traffic", "vector_load_ops"),
    # per-unit busy totals: exactly FU2, FU1 and MEM, each a counter
    "unit-busy-not-an-object": _edited("result", "stats", "unit_busy", value=5),
    "unit-busy-intervals": _edited(
        "result", "stats", "unit_busy", "FU1", value=[[0, 300]]),
    "unit-busy-negative": _edited("result", "stats", "unit_busy", "MEM", value=-1),
    "unit-busy-bool": _edited("result", "stats", "unit_busy", "FU2", value=False),
    "unit-busy-missing-unit": _edited("result", "stats", "unit_busy", "MEM"),
    "unit-busy-extra-unit": _edited("result", "stats", "unit_busy", "FU3", value=0),
    # state counts: [[fu2, fu1, mem], cycles] pairs, each state listed once
    "no-unit-states": _edited("result", "stats", "unit_states"),
    "unit-states-an-object": _edited(
        "result", "stats", "unit_states", value={"<FU2,,MEM>": 400}),
    "unit-state-count-negative": _edited(
        "result", "stats", "unit_states", 0, 1, value=-400),
    "unit-state-count-bool": _edited("result", "stats", "unit_states", 0, 1, value=True),
    "unit-state-count-float": _edited("result", "stats", "unit_states", 0, 1, value=4.0),
    "unit-state-too-short": _edited(
        "result", "stats", "unit_states", 0, 0, value=[True, False]),
    "unit-state-int-flags": _edited(
        "result", "stats", "unit_states", 0, 0, value=[1, 0, 1]),
    "unit-state-not-a-pair": _edited(
        "result", "stats", "unit_states", 0, value=[[True, False, True], 400, 1]),
    "unit-state-listed-twice": _edited(
        "result", "stats", "unit_states", 1, 0, value=[True, False, True]),
}

#: rewritten entries that still hold the same valid result
VALID_VARIANTS = {
    "as-written": json.dumps,
    "pretty-printed": lambda payload: json.dumps(payload, indent=2, sort_keys=True),
    "incomplete-key-block": _edited("key", value={}),
    "extra-field": _edited("writer", value="fleet"),
}


def _cases(*tables):
    """``pytest.param``s for every ``id -> edit`` entry of ``tables``."""
    return [pytest.param(edit, id=name)
            for table in tables for name, edit in table.items()]


# ---------------------------------------------------------------------------
# Store construction
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_cache_dir_gives_the_object_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert isinstance(store.backend, ObjectStoreBackend)
        assert store.describe() == f"object ({tmp_path / OBJECT_SUBDIR})"
        point = _point()
        store.put(point, _result(point))
        assert _entry_file(tmp_path, point).is_file()

    def test_memory_only_store_has_no_backend(self):
        store = ResultStore()
        assert store.backend is None
        assert store.describe() == "memory"
        assert store.gc() == (0, 0)

    def test_backend_is_not_a_choice(self, tmp_path):
        # a cache dir always means the object store
        with pytest.raises(TypeError):
            ResultStore(tmp_path, backend="json")


# ---------------------------------------------------------------------------
# The store contract on a cache directory
# ---------------------------------------------------------------------------


class TestBackendContract:
    def test_round_trip_preserves_payload(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        result = _result(point, cycles=1234, rename_stall_cycles=7)
        store.put(point, result)
        fresh = ResultStore(tmp_path)
        fetched = fresh.get(point)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        assert fresh.disk_hits == 1

    def test_entries_survive_restart(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        fresh = ResultStore(tmp_path)
        assert fresh.contains(point)
        assert fresh.get(point) is not None

    @pytest.mark.parametrize("edit", _cases(UNDECODABLE_ENTRIES))
    def test_corrupt_entry_degrades_to_miss(self, tmp_path, edit):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        _rewrite_entry(tmp_path, point, edit)
        fresh = ResultStore(tmp_path)
        assert fresh.get(point) is None
        # the broken entry is gone: contains() agrees and a re-put heals it
        assert not fresh.contains(point)
        fresh.put(point, _result(point))
        assert ResultStore(tmp_path).get(point) is not None

    def test_stale_params_are_dropped_on_get(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        payload = {
            "version": STORE_VERSION,
            "key": {"fingerprint": point.fingerprint()},
            "result": {"workload": "trfd", "config_name": "ooo",
                       "params": {"kind": "ooo", "num_phys_vregs": 4},  # invalid
                       "stats": {}},
        }
        _corrupt_entry(tmp_path, point, json.dumps(payload))
        fresh = ResultStore(tmp_path)
        assert fresh.get(point) is None

    def test_transient_read_error_is_a_miss_not_a_delete(self, tmp_path, monkeypatch):
        # An EIO/NFS hiccup while reading must degrade to a miss without
        # deleting a perfectly valid entry (only *decode* failures may).
        point = _point()
        ResultStore(tmp_path).put(point, _result(point))
        store = ResultStore(tmp_path)
        entry = _entry_file(tmp_path, point)
        real_read_bytes = Path.read_bytes

        def flaky(self):
            if self == entry:
                raise OSError(5, "Input/output error")
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", flaky)
        assert store.get(point) is None
        monkeypatch.undo()
        assert entry.exists()  # the entry survived the bad read
        assert store.get(point) is not None

    def test_gc_keeps_valid_and_evicts_invalid(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = _point(regs=16), _point(regs=32)
        store.put(good, _result(good))
        store.put(bad, _result(bad))
        _corrupt_entry(tmp_path, bad)
        fresh = ResultStore(tmp_path)
        kept, evicted = fresh.gc()
        assert (kept, evicted) == (1, 1)
        assert fresh.get(good) is not None
        assert not fresh.contains(bad)
        # a second gc finds nothing left to evict
        assert fresh.gc() == (1, 0)

    def test_gc_evicts_old_store_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        path_payload = {
            "version": STORE_VERSION + 1,
            "key": {"fingerprint": point.fingerprint(), "workload": "trfd",
                    "scale": "tiny", "config_name": point.config.name},
            "result": _result(point).to_dict(),
        }
        _corrupt_entry(tmp_path, point, json.dumps(path_payload))
        fresh = ResultStore(tmp_path)
        assert fresh.gc() == (0, 1)

    def test_gc_survives_incomplete_key_blocks(self, tmp_path):
        # A valid result whose key block lost fields (older writer) must
        # neither crash gc nor be evicted: the payload still validates.
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        path = _entry_file(tmp_path, point)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["key"] = {"fingerprint": point.fingerprint()}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.gc() == (1, 0)

    def test_put_writes_through_and_flush_changes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        assert ResultStore(tmp_path).contains(point)  # on disk before any flush
        files = sorted(tmp_path.rglob("*"))
        store.flush()
        assert sorted(tmp_path.rglob("*")) == files

    def test_delete_then_get_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        _entry_file(tmp_path, point).unlink()
        assert ResultStore(tmp_path).get(point) is None

    def test_engine_warm_start_simulates_nothing(self, tmp_path):
        spec = ExperimentSpec.grid(
            "warm", ["trfd"], [reference_config(), ooo_config()], "tiny")
        cold = ExperimentEngine(ResultStore(tmp_path))
        cold.run_spec(spec)
        assert cold.simulated == 2
        warm = ExperimentEngine(ResultStore(tmp_path))
        warm.run_spec(spec)
        assert warm.simulated == 0
        assert warm.disk_hits == len(spec)


# ---------------------------------------------------------------------------
# Entry validation: get serves exactly what gc keeps
# ---------------------------------------------------------------------------


class TestEntryValidation:
    """``get`` and ``gc`` judge every entry with the backend's one decoder.

    A rejected entry is a miss that leaves the disk, so ``contains()``
    agrees and the engine re-simulates it; a served entry survives ``gc``.
    """

    @pytest.mark.parametrize("edit", _cases(INVALID_PAYLOADS))
    def test_invalid_payload_is_a_miss_and_is_dropped(self, tmp_path, edit):
        store = ResultStore(tmp_path)
        point = _point()
        store.put(point, _result(point))
        _rewrite_entry(tmp_path, point, edit)
        fresh = ResultStore(tmp_path)
        assert fresh.get(point) is None
        assert fresh.disk_hits == 0
        assert not fresh.contains(point)

    @pytest.mark.parametrize("edit", _cases(UNDECODABLE_ENTRIES, INVALID_PAYLOADS))
    def test_gc_evicts_what_get_rejects(self, tmp_path, edit):
        store = ResultStore(tmp_path)
        good, bad = _point(regs=16), _point(regs=32)
        store.put(good, _result(good))
        store.put(bad, _result(bad))
        _rewrite_entry(tmp_path, bad, edit)
        assert ResultStore(tmp_path).gc() == (1, 1)
        fresh = ResultStore(tmp_path)
        assert not fresh.contains(bad)
        assert fresh.get(good) is not None

    @pytest.mark.parametrize("edit", _cases(VALID_VARIANTS))
    def test_gc_keeps_what_get_serves(self, tmp_path, edit):
        store = ResultStore(tmp_path)
        point = _point()
        result = _result(point, cycles=4321)
        store.put(point, result)
        _rewrite_entry(tmp_path, point, edit)
        fetched = ResultStore(tmp_path).get(point)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        assert ResultStore(tmp_path).gc() == (1, 0)


# ---------------------------------------------------------------------------
# One cache dir shared by stores and fleet workers
# ---------------------------------------------------------------------------


class TestSharedCacheDir:
    def test_stores_see_each_others_writes_without_restart(self, tmp_path):
        reader = ResultStore(tmp_path)
        writer = ResultStore(tmp_path)
        point = _point()
        assert not reader.contains(point)
        writer.put(point, _result(point, cycles=77))
        assert reader.contains(point)
        fetched = reader.get(point)
        assert fetched is not None and fetched.cycles == 77
        assert reader.disk_hits == 1

    def test_last_writer_wins(self, tmp_path):
        point = _point()
        ResultStore(tmp_path).put(point, _result(point, cycles=1))
        ResultStore(tmp_path).put(point, _result(point, cycles=2))
        fetched = ResultStore(tmp_path).get(point)
        assert fetched is not None and fetched.cycles == 2
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stored_object_has_the_documented_bytes(self, tmp_path):
        # the engine writes the bytes a fleet worker publishes for the point
        point = _point()
        result = _result(point, cycles=99)
        ResultStore(tmp_path).put(point, result)
        assert _entry_file(tmp_path, point).read_bytes() == result_object(point, result)

    def test_published_object_is_a_disk_hit(self, tmp_path):
        point = _point()
        result = _result(point, cycles=4321)
        ObjectStoreBackend(tmp_path).put(point, result)
        store = ResultStore(tmp_path)
        fetched = store.get(point)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        assert store.disk_hits == 1

    def test_stored_object_is_what_the_fleet_collects(self, tmp_path):
        point = _point()
        result = _result(point)
        ResultStore(tmp_path).put(point, result)
        collected = ObjectStoreBackend(tmp_path).get(point.fingerprint())
        assert collected is not None
        assert collected.to_dict() == result.to_dict()


# ---------------------------------------------------------------------------
# Caches left by the retired sharded-JSON, SQLite and trace-directory layouts
# ---------------------------------------------------------------------------


def _write_retired_entries(cache_dir, point):
    """Store ``point``'s entry the way the retired layouts did; returns the files.

    Sharded JSON kept ``<fp[:2]>/<workload>-<scale>-<config>-<fp[:16]>.json``
    plus an ``_index.json`` manifest; SQLite kept one ``results.db``.
    Compiled traces sat beside them in ``traces/``, as
    ``<workload>-<scale>-v1.trace.pkl``.
    """
    key = point.fingerprint()
    text = result_object(point, _result(point)).decode("utf-8")
    shard = (cache_dir / key[:2]
             / f"{point.workload}-{point.scale}-{point.config.name}-{key[:16]}.json")
    shard.parent.mkdir(parents=True)
    shard.write_text(text, encoding="utf-8")
    index = cache_dir / "_index.json"
    index.write_text(json.dumps({"entries": {key: {"workload": point.workload}}}),
                     encoding="utf-8")
    database = cache_dir / "results.db"
    with closing(sqlite3.connect(database)) as conn:
        conn.execute(
            "CREATE TABLE results (fingerprint TEXT PRIMARY KEY,"
            " version INTEGER NOT NULL, workload TEXT NOT NULL,"
            " scale TEXT NOT NULL, config_name TEXT NOT NULL,"
            " payload TEXT NOT NULL)")
        conn.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?)",
            (key, STORE_VERSION, point.workload, point.scale,
             point.config.name, text))
        conn.commit()
    trace = cache_dir / "traces" / f"{point.workload}-{point.scale}-v1.trace.pkl"
    trace.parent.mkdir()
    trace.write_bytes(pickle.dumps({
        "version": 1, "workload": point.workload, "scale": point.scale,
        "trace": get_workload(point.workload, point.scale).trace()}))
    return [shard, index, database, trace]


class TestRetiredLayouts:
    """Nothing reads a retired layout and nothing migrates or deletes it."""

    def test_retired_entries_are_not_read(self, tmp_path):
        point = _point()
        _write_retired_entries(tmp_path, point)
        store = ResultStore(tmp_path)
        assert not store.contains(point)
        assert store.get(point) is None

    def test_first_run_resimulates_into_the_object_store(self, tmp_path):
        point = _point()
        retired = _write_retired_entries(tmp_path, point)
        engine = ExperimentEngine(ResultStore(tmp_path))
        engine.run_point(point)
        assert engine.simulated == 1
        assert engine.trace_store.generated == 1  # the retired trace is not read
        assert _entry_file(tmp_path, point).is_file()
        assert all(path.is_file() for path in retired)

    def test_gc_leaves_retired_files_alone(self, tmp_path):
        point = _point()
        retired = _write_retired_entries(tmp_path, point)
        before = {path: path.read_bytes() for path in retired}
        with Session(cache_dir=tmp_path, env={}) as session:
            assert session.gc() == {"results": (0, 0), "traces": (0, 0)}
        assert {path: path.read_bytes() for path in retired} == before


# ---------------------------------------------------------------------------
# Property tests: hypothesis-generated results through the store
# ---------------------------------------------------------------------------


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
        rename_stall_cycles=draw(counters),
        rob_stall_cycles=draw(counters),
        queue_stall_cycles=draw(counters),
        loads_eliminated=draw(counters),
        stores_executed_at_head=draw(counters),
        traffic=MemoryTraffic(
            vector_load_ops=draw(counters),
            vector_store_ops=draw(counters),
            scalar_load_ops=draw(counters),
            scalar_store_ops=draw(counters),
        ),
        unit_busy={unit: draw(counters) for unit in VECTOR_UNIT_ORDER},
        # any subset of the eight states, in any order
        unit_states=draw(st.dictionaries(
            st.tuples(st.booleans(), st.booleans(), st.booleans()), counters)),
    )
    return point, SimulationResult(
        workload=point.workload,
        config_name=point.config.name,
        params=point.config.params,
        stats=stats,
    )


class TestBackendProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=simulation_results())
    def test_round_trip_preserves_to_dict(self, tmp_path, data):
        point, result = data
        root = tmp_path / uuid.uuid4().hex
        store = ResultStore(root)
        store.put(point, result)
        fetched = store.get(point)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        # survives a simulated process restart (fresh store instance)
        fresh = ResultStore(root)
        refetched = fresh.get(point)
        assert refetched is not None
        assert refetched.to_dict() == result.to_dict()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=simulation_results(),
           cut=st.integers(min_value=0, max_value=60),
           junk=st.sampled_from(["", "{", "null", "[1,2", "\x00\x00"]))
    def test_truncated_entries_miss_then_resimulate(self, tmp_path, data, cut, junk):
        point, result = data
        root = tmp_path / uuid.uuid4().hex
        store = ResultStore(root)
        store.put(point, result)
        text = json.dumps(result.to_dict())[:cut] + junk
        _corrupt_entry(root, point, text)
        fresh = ResultStore(root)
        # never raises: a damaged entry is a miss...
        assert fresh.get(point) is None
        # ...and the engine transparently re-simulates and re-stores it
        engine = ExperimentEngine(fresh)
        healed = engine.run_point(point)
        assert engine.simulated == 1
        assert healed.cycles > 0
        assert ResultStore(root).get(point) is not None

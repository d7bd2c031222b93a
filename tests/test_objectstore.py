"""Unit and property tests for the S3-style object store layers.

The generic :class:`~repro.core.objectstore.ObjectStore` quartet
(put/get/list/delete), key hygiene, crash-leftover sweeping, and the
result store's backend built on it (also covered through
:class:`~repro.core.runner.ResultStore` in ``test_store_backends``).
"""

import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.core.objectstore import (
    OBJECT_SUBDIR,
    RESULT_PREFIX,
    ObjectStore,
    ObjectStoreBackend,
)

KEYS = st.lists(
    st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
    min_size=1, max_size=3,
).map("/".join)


class TestObjectStoreQuartet:
    def test_put_get_roundtrip(self, tmp_path):
        store = ObjectStore(tmp_path)
        store.put("results/ab/abcd.json", b"payload")
        assert store.get("results/ab/abcd.json") == b"payload"
        assert store.exists("results/ab/abcd.json")

    def test_get_missing_returns_none(self, tmp_path):
        assert ObjectStore(tmp_path).get("nope/missing") is None

    def test_put_overwrites_atomically(self, tmp_path):
        store = ObjectStore(tmp_path)
        store.put("k/v", b"old")
        store.put("k/v", b"new")
        assert store.get("k/v") == b"new"
        assert not list(tmp_path.rglob(".*.tmp"))

    def test_list_is_sorted_and_prefix_scoped(self, tmp_path):
        store = ObjectStore(tmp_path)
        store.put("results/bb/2.json", b"2")
        store.put("results/aa/1.json", b"1")
        store.put("queue/aa/3.json", b"3")
        assert list(store.list("results")) == [
            "results/aa/1.json", "results/bb/2.json"]
        assert list(store.list()) == [
            "queue/aa/3.json", "results/aa/1.json", "results/bb/2.json"]

    def test_list_skips_temp_files(self, tmp_path):
        store = ObjectStore(tmp_path)
        store.put("ns/entry", b"x")
        (tmp_path / "ns" / ".entry.123.tmp").write_bytes(b"partial")
        assert list(store.list("ns")) == ["ns/entry"]
        assert store.sweep_temp("ns") == 1

    def test_delete_reports_existence(self, tmp_path):
        store = ObjectStore(tmp_path)
        store.put("a/b", b"x")
        assert store.delete("a/b") is True
        assert store.delete("a/b") is False
        assert store.get("a/b") is None

    def test_delete_removes_the_directories_it_empties(self, tmp_path):
        store = ObjectStore(tmp_path / "bucket")
        store.put("a/b/c", b"x")
        store.put("a/d", b"y")
        store.delete("a/b/c")
        assert [path.name for path in (tmp_path / "bucket").rglob("*")] == ["a", "d"]
        store.delete("a/d")
        # the root stays, empty
        assert list((tmp_path / "bucket").iterdir()) == []

    def test_put_remakes_a_directory_removed_before_its_write(self, tmp_path, monkeypatch):
        # a concurrent delete may remove the empty directory between the
        # put's mkdir and its write
        store = ObjectStore(tmp_path)
        write_bytes = Path.write_bytes
        writes = []

        def racing_write(path, data):
            if not writes:
                path.parent.rmdir()
            writes.append(path)
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", racing_write)
        store.put("a/b/c", b"x")
        assert len(writes) == 2
        assert store.get("a/b/c") == b"x"

    def test_list_skips_a_directory_removed_mid_walk(self, tmp_path, monkeypatch):
        store = ObjectStore(tmp_path)
        store.put("q/a/1", b"1")
        store.put("q/b/2", b"2")
        scandir = os.scandir

        def racing_scandir(path):
            # q/a was listed in q, then removed before its own scan (rmtree
            # scans by file descriptor)
            if isinstance(path, str) and os.path.basename(path) == "a":
                shutil.rmtree(path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", racing_scandir)
        assert list(store.list("q")) == ["q/b/2"]

    @pytest.mark.parametrize("bad", ["", "../escape", "a//b", "a/./b", "a/../b"])
    def test_traversal_keys_rejected(self, tmp_path, bad):
        store = ObjectStore(tmp_path)
        with pytest.raises(ReproError, match="invalid object key"):
            store.put(bad, b"x")

    @given(key=KEYS, data=st.binary(max_size=64))
    def test_roundtrip_property(self, tmp_path_factory, key, data):
        store = ObjectStore(tmp_path_factory.mktemp("objstore"))
        store.put(key, data)
        assert store.get(key) == data
        assert key in list(store.list())
        assert store.delete(key) is True
        assert store.get(key) is None

    @given(keys=st.lists(KEYS, min_size=1, max_size=10, unique=True))
    def test_list_order_is_full_key_lexicographic(self, tmp_path_factory, keys):
        # the documented backend contract: list() yields keys sorted by the
        # complete "/"-joined key string (S3 ListObjects order), independent
        # of directory enumeration order or Path's per-component ordering --
        # the fleet's claim-race winner depends on every process agreeing
        store = ObjectStore(tmp_path_factory.mktemp("objstore"))
        # drop keys that are directory-prefixes of other keys (a filesystem
        # root can't hold both file "a" and directory "a/")
        flat = [
            key for key in keys
            if not any(
                other != key and other.startswith(key + "/") for other in keys
            )
        ]
        for key in reversed(flat):  # insertion order != sorted order
            store.put(key, key.encode())
        assert list(store.list()) == sorted(set(flat))

    def test_list_orders_by_key_string_not_path_parts(self, tmp_path):
        # "a-b" < "a/c" as strings ("-" < "/"), but Path ordering compares
        # components and would put ("a", "c") before ("a-b",)
        store = ObjectStore(tmp_path)
        store.put("a/c", b"deep")
        store.put("a-b", b"flat")
        assert list(store.list()) == ["a-b", "a/c"]


class TestObjectBackendLayout:
    def test_results_live_under_the_results_prefix(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path)
        assert backend._object_key("ab" * 32).startswith(f"{RESULT_PREFIX}/ab/")
        assert str(tmp_path / OBJECT_SUBDIR) in backend.describe()

    def test_gc_sweeps_undecodable_objects_and_temp_files(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path)
        backend.objects.put("results/zz/zz123.json", b"{not json")
        (tmp_path / OBJECT_SUBDIR / RESULT_PREFIX / "zz" / ".x.tmp").write_bytes(b"")
        kept, evicted = backend.gc()
        assert kept == 0 and evicted == 2

    def test_gc_converges_on_misplaced_objects(self, tmp_path):
        # a foreign/partially-synced object whose shard dir does not match
        # its name must be deleted for real, not merely counted, so a
        # second gc reports a clean store
        backend = ObjectStoreBackend(tmp_path)
        backend.objects.put("results/xx/stray.json", b"{corrupt")
        assert backend.gc() == (0, 1)
        assert backend.objects.get("results/xx/stray.json") is None
        assert backend.gc() == (0, 0)


"""Filesystem-rooted, S3-style object store and the result-store backend on it.

The ROADMAP's cross-machine result-sharing item calls for an object-storage
backend behind the same fingerprint keys as the JSON and SQLite stores.
This module provides it in two layers:

* :class:`ObjectStore` — a minimal S3-flavoured key/value store
  (``put``/``get``/``list``/``delete`` over opaque ``prefix/…`` keys)
  rooted at a directory.  The key namespace is flat; slashes in keys map to
  subdirectories, exactly like object keys map to bucket prefixes.  Writes
  are atomic (unique temp name + ``os.replace``) and reads degrade to
  ``None`` on any I/O problem, so a shared store never wedges a reader.
  Pointing the root at a mounted bucket (s3fs, NFS, a synced directory)
  gives cross-machine sharing without any new dependency; a networked
  implementation only has to mimic these four methods.

* :class:`ObjectStoreBackend` — the :class:`~repro.core.store.StoreBackend`
  over an :class:`ObjectStore`, selected with ``--store object`` /
  ``REPRO_STORE=object`` / ``Settings(store="object")``.  Result entries
  live under the ``results/`` prefix; the fleet's lease queue
  (:mod:`repro.fleet.queue`) shares the same root under ``queue/``.

Layout::

    <cache_dir>/objects/
        results/<fp[:2]>/<fp>.json       # simulation results
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import ReproError
from repro.core.store import StoreBackend, payload_is_valid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.runner import ExperimentPoint

#: subdirectory of the experiment cache dir acting as the bucket root
OBJECT_SUBDIR = "objects"

#: key prefix of the simulation-result namespace
RESULT_PREFIX = "results"


class ObjectStore:
    """A directory pretending to be an object-storage bucket.

    Keys are ``/``-separated UTF-8 strings (``results/ab/abcd….json``).
    The store never walks outside its root: keys with empty, ``.`` or
    ``..`` segments (or absolute paths) are rejected with
    :class:`~repro.common.errors.ReproError`.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # -- key handling -------------------------------------------------------

    def _path(self, key: str) -> Path:
        parts = key.split("/")
        if not key or any(part in ("", ".", "..") for part in parts):
            raise ReproError(f"invalid object key {key!r}")
        return self.root.joinpath(*parts)

    def _key(self, path: Path) -> str:
        return "/".join(path.relative_to(self.root).parts)

    # -- the S3-style quartet ------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` atomically (last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def get(self, key: str) -> bytes | None:
        """Return the object's bytes, or ``None`` (missing or unreadable)."""
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def list(self, prefix: str = "") -> Iterator[str]:
        """Yield every stored key under ``prefix``, sorted by full key string.

        The ordering is part of the backend contract, not a convenience:
        ``list`` returns keys in **lexicographic order of the complete
        ``/``-joined key string** (S3's ListObjects order), regardless of
        how the underlying filesystem enumerates directories.  The fleet's
        :class:`~repro.fleet.queue.LeaseQueue` resolves claim races by
        taking the lexicographically-first entrant, so any two processes
        listing the same keys must agree on who that is.  (Note this is
        *not* the same as sorting ``Path`` objects, which compares
        per-component and would order ``a/c`` before ``a-b``.)

        Temp files from in-flight (or crashed) writers are never listed.
        """
        base = self.root if not prefix else self._path(prefix)
        if not base.is_dir():
            return
        keys = [
            self._key(path)
            for path in base.rglob("*")
            if path.is_file() and not (
                path.name.startswith(".") and path.name.endswith(".tmp")
            )
        ]
        yield from sorted(keys)

    def delete(self, key: str) -> bool:
        """Remove the object if present; returns whether it existed.

        Best-effort like the other stores' ``_discard``: a reader without
        write permission degrades to ``False`` instead of crashing.
        """
        path = self._path(key)
        existed = path.is_file()
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return False
        return existed

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    # -- maintenance ---------------------------------------------------------

    def sweep_temp(self, prefix: str = "") -> int:
        """Drop crashed-writer temp files under ``prefix``; returns the count."""
        base = self.root if not prefix else self._path(prefix)
        if not base.is_dir():
            return 0
        dropped = 0
        for path in base.rglob(".*.tmp"):
            try:
                path.unlink(missing_ok=True)
                dropped += 1
            except OSError:
                pass
        return dropped

    def describe(self) -> str:
        return f"object ({self.root})"


class ObjectStoreBackend(StoreBackend):
    """Result-store backend over an :class:`ObjectStore` (``results/`` keys).

    Registered as backend kind ``"object"`` in :mod:`repro.core.store`;
    payloads and fingerprint keys are identical to the JSON and SQLite
    backends, so switching backends never changes what a cache hit means.
    """

    kind = "object"

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.objects = ObjectStore(self.cache_dir / OBJECT_SUBDIR)

    # -- keys ----------------------------------------------------------------

    def _object_key(self, key: str) -> str:
        return f"{RESULT_PREFIX}/{key[:2]}/{key}.json"

    # -- StoreBackend --------------------------------------------------------

    def get(self, key: str, point: "ExperimentPoint") -> dict | None:
        data = self.objects.get(self._object_key(key))
        if data is None:
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            # Undecodable (truncated/corrupt) object: degrade to a miss.
            self.objects.delete(self._object_key(key))
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, point: "ExperimentPoint", payload: dict) -> None:
        self.objects.put(
            self._object_key(key), json.dumps(payload).encode("utf-8")
        )

    def contains(self, key: str, point: "ExperimentPoint") -> bool:
        return self.objects.exists(self._object_key(key))

    def delete(self, key: str, point: "ExperimentPoint") -> None:
        self.objects.delete(self._object_key(key))

    def entries(self) -> Iterator[tuple[str, dict | None]]:
        for object_key in list(self.objects.list(RESULT_PREFIX)):
            fingerprint = object_key.rsplit("/", 1)[-1]
            if fingerprint.endswith(".json"):
                fingerprint = fingerprint[: -len(".json")]
            data = self.objects.get(object_key)
            payload: dict | None = None
            if data is not None:
                try:
                    decoded = json.loads(data.decode("utf-8"))
                    payload = decoded if isinstance(decoded, dict) else None
                except (ValueError, UnicodeDecodeError):
                    payload = None
            yield fingerprint, payload

    def evict(self, key: str) -> None:
        self.objects.delete(self._object_key(key))

    def gc(self) -> tuple[int, int]:
        """Drop undecodable/stale result objects; returns ``(kept, evicted)``.

        Deletes by the *listed* object key rather than a key reconstructed
        from the fingerprint, so misplaced or foreign objects (a partial
        bucket sync, another writer's debris) are actually removed instead
        of being re-counted on every run.  Also sweeps crashed-writer temp
        files in the ``results/`` namespace.
        """
        kept = 0
        evicted = 0
        for object_key in list(self.objects.list(RESULT_PREFIX)):
            data = self.objects.get(object_key)
            payload: object = None
            if data is not None:
                try:
                    payload = json.loads(data.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    payload = None
            if payload_is_valid(payload):
                kept += 1
            else:
                self.objects.delete(object_key)
                evicted += 1
        evicted += self.objects.sweep_temp(RESULT_PREFIX)
        return kept, evicted

    def describe(self) -> str:
        return f"object ({self.cache_dir / OBJECT_SUBDIR})"

"""The cache directory's object-store bucket and its result namespace.

Everything a cache directory holds is one bucket, in two layers:

* :class:`ObjectStore` — a minimal S3-flavoured key/value store
  (``put``/``get``/``list``/``delete`` over opaque ``prefix/…`` keys)
  rooted at a directory.  The key namespace is flat; slashes in keys map to
  subdirectories, exactly like object keys map to bucket prefixes.  Writes
  are atomic (unique temp name + ``os.replace``) and reads degrade to
  ``None`` on any I/O problem, so a shared store never wedges a reader.
  Pointing the root at a mounted bucket (s3fs, NFS, a synced directory)
  gives cross-machine sharing without any new dependency; a networked
  implementation only has to mimic these four methods.

* One class per namespace reads and writes it:

  - ``results/`` — :class:`ObjectStoreBackend`, the persistent layer of
    :class:`~repro.core.runner.ResultStore` and the only code that builds
    or decodes a result object;
  - ``traces/`` — :class:`~repro.trace.store.TraceStore`, the compiled
    traces;
  - ``queue/`` — the fleet's :class:`~repro.fleet.queue.LeaseQueue`.

Every result object is the JSON payload ``{"version", "key", "result"}``,
keyed by :meth:`~repro.core.runner.ExperimentPoint.fingerprint`, so it is
byte-identical whichever process wrote it (the engine's store or a fleet
worker).  A result holds plain counters: each vector unit's busy cycles
and the cycle count of each joint unit state, never the busy intervals
behind them (store version 2; a full-scale ``run-all`` stores about
0.65 MB).  Corrupt or undecodable entries — a counter that is not a
non-negative integer included — are dropped (and re-simulated by the
engine) rather than raised, and :meth:`ObjectStoreBackend.gc` evicts
them.  An entry written at an older version is never read: its point has
a new fingerprint, so the first run re-simulates it and ``gc`` evicts the
old object.

Layout::

    <cache_dir>/objects/
        results/<fp[:2]>/<fp>.json   # simulation results
        traces/…                     # compiled traces (repro.trace.store)
        queue/…                      # the fleet's lease queue (repro.fleet.queue)
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import ReproError
from repro.common.params import params_to_dict
from repro.core.results import SimulationResult

if TYPE_CHECKING:
    from repro.core.runner import ExperimentPoint

#: on-disk store format version; bump when the result payload shape changes
#: (2: busy totals and state counts replaced the busy-interval pairs;
#: 3: a late rename under vector load elimination is no rename stall;
#: 4: ``scalar_loads_eliminated`` dropped, it duplicated
#: ``traffic.eliminated_scalar_load_ops``; 5: the count of predicted
#: branches dropped, it equalled ``branch_instructions`` on the OOO family
#: and read 0 on the reference machine, and five parameters no model read
#: left the stored ``params`` block)
STORE_VERSION = 5

#: subdirectory of the experiment cache dir acting as the bucket root
OBJECT_SUBDIR = "objects"

#: key prefix of the simulation-result namespace
RESULT_PREFIX = "results"


def _decode(data: bytes) -> SimulationResult | None:
    """The result in a current-version result object, or None.

    The single source of truth for entry validation: ``get`` and ``gc``
    both go through it, so what ``gc`` keeps and what ``get`` serves can
    never drift apart.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
        return None
    try:
        return SimulationResult.from_dict(payload["result"])
    except (ValueError, KeyError, TypeError, AttributeError, ReproError):
        # TypeError/AttributeError: a block of the wrong JSON type
        # (``"result": []``, ``"params": 5``)
        return None


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

        Best-effort: a reader without write permission (a shared cache
        dir) degrades to ``False`` instead of crashing.
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


class ObjectStoreBackend:
    """The result store's persistent layer: one ``results/`` object per entry.

    Keys are full :meth:`~repro.core.runner.ExperimentPoint.fingerprint`
    hex digests.  ``get`` returns the decoded result or ``None``: an entry
    that does not decode to a current-version result is dropped, so a
    corrupt cache degrades to a cache miss, never an exception.
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.objects = ObjectStore(Path(cache_dir) / OBJECT_SUBDIR)

    def _object_key(self, key: str) -> str:
        return f"{RESULT_PREFIX}/{key[:2]}/{key}.json"

    def get(self, key: str) -> SimulationResult | None:
        """Return the stored result for fingerprint ``key``, or ``None``."""
        object_key = self._object_key(key)
        data = self.objects.get(object_key)
        if data is None:
            return None
        result = _decode(data)
        if result is None:
            # Truncated, corrupt, stale or not an entry at all: drop it,
            # so contains() agrees that this is a miss.
            self.objects.delete(object_key)
        return result

    def put(self, point: ExperimentPoint, result: SimulationResult) -> None:
        """Persist ``result`` as ``point``'s object (atomically).

        The bytes depend only on the point and the result, so two workers
        racing on the same point overwrite each other with the same object.
        """
        key = point.fingerprint()
        payload = {
            "version": STORE_VERSION,
            "key": {
                "workload": point.workload,
                "scale": point.scale,
                "config_name": point.config.name,
                "fingerprint": key,
                "params": params_to_dict(point.config.params),
            },
            "result": result.to_dict(),
        }
        self.objects.put(self._object_key(key), json.dumps(payload).encode("utf-8"))

    def contains(self, key: str) -> bool:
        """True when an entry for ``key`` exists on disk."""
        return self.objects.exists(self._object_key(key))

    def gc(self) -> tuple[int, int]:
        """Drop undecodable/stale result objects; returns ``(kept, evicted)``.

        An entry is evicted when it does not decode, its ``version`` is not
        the current :data:`STORE_VERSION`, or its parameters fail
        validation (e.g. the schema moved underneath an old cache).
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
            if data is not None and _decode(data) is not None:
                kept += 1
            else:
                self.objects.delete(object_key)
                evicted += 1
        evicted += self.objects.sweep_temp(RESULT_PREFIX)
        return kept, evicted

    def describe(self) -> str:
        """One-line human-readable location description."""
        return self.objects.describe()

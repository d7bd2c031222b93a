"""On-disk compiled-trace memoisation.

Generating a workload trace means building the IR kernel, running the whole
compiler pipeline and expanding the dynamic instruction stream — by far the
most expensive part of setting up a simulation point.  The in-process
``lru_cache`` in :mod:`repro.workloads.base` already deduplicates that work
*within* a process, but every worker process of a parallel sweep (and every
fresh ``run-all`` invocation) used to redo it from scratch.

:class:`TraceStore` memoises compiled traces on disk, keyed by
``(workload, scale)`` plus a format version.  The experiment engine
pre-warms the store in the parent process before fanning a batch out, so a
cold ``run-all --jobs N`` compiles each workload trace exactly once; the
workers (and any later process) just deserialise.

Entries are pickled :class:`~repro.trace.records.Trace` objects wrapped in
a small self-describing header.  The store only ever reads files it wrote
itself inside the experiment cache directory; anything undecodable or
version-mismatched is dropped and regenerated, never raised.
"""

from __future__ import annotations

import functools
import os
import pickle
import uuid
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.records import Trace

#: serialised-trace format version; bump when Trace/DynInstr fields change
TRACE_STORE_VERSION = 1


def _discard(path: Path) -> None:
    """Best-effort unlink (readers without write permission get a miss)."""
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


class TraceStore:
    """Disk cache of compiled workload traces, keyed by (workload, scale)."""

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        #: traces served from disk / compiled (and persisted) by this store
        self.disk_hits = 0
        self.generated = 0

    def _path(self, workload: str, scale: str) -> Path:
        return self.cache_dir / f"{workload}-{scale}-v{TRACE_STORE_VERSION}.trace.pkl"

    # -- lookup -------------------------------------------------------------

    def get(self, workload: str, scale: str) -> Trace | None:
        """Return the memoised trace, or ``None`` (dropping bad entries)."""
        from repro.trace.records import Trace

        path = self._path(workload, scale)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except OSError:
            # Transient read failure: a miss, never grounds for deletion.
            return None
        except Exception:
            # Truncated/corrupt/incompatible pickle: regenerate instead.
            _discard(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != TRACE_STORE_VERSION
            or payload.get("workload") != workload
            or payload.get("scale") != scale
            or not isinstance(payload.get("trace"), Trace)
        ):
            _discard(path)
            return None
        self.disk_hits += 1
        return payload["trace"]

    def contains(self, workload: str, scale: str) -> bool:
        return self._path(workload, scale).is_file()

    # -- insertion ----------------------------------------------------------

    def put(self, workload: str, scale: str, trace: Trace) -> None:
        """Persist ``trace`` atomically (unique temp name, then replace)."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(workload, scale)
        payload = {
            "version": TRACE_STORE_VERSION,
            "workload": workload,
            "scale": scale,
            "trace": trace,
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        with tmp.open("wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    # -- the memoisation entry points ---------------------------------------

    def load_or_generate(self, workload: str, scale: str) -> Trace:
        """Return the trace from disk, compiling (and persisting) on a miss."""
        cached = self.get(workload, scale)
        if cached is not None:
            return cached
        from repro.workloads.registry import get_workload

        trace = get_workload(workload, scale).trace()
        self.put(workload, scale, trace)
        self.generated += 1
        return trace

    def load_memoised(self, workload: str, scale: str) -> Trace:
        """Per-process memoised :meth:`load_or_generate`.

        A sweep grid has hundreds of points but only a handful of unique
        (workload, scale) traces; this front caches the deserialised trace
        in-process (traces are treated as immutable once generated) so each
        process unpickles it once, not once per point.  Hits bypass this
        instance's counters.
        """
        return _load_or_generate_cached(str(self.cache_dir), workload, scale)

    def ensure(self, workload: str, scale: str) -> bool:
        """Make sure a *loadable* trace is on disk; True when it was compiled.

        The engine calls this in the parent process for every unique
        (workload, scale) of a batch before fanning out, so worker processes
        only ever deserialise.  Validates by actually loading: a corrupt
        leftover entry is dropped and recompiled here, in the parent, rather
        than once per worker.
        """
        if self.get(workload, scale) is not None:
            return False
        self.load_or_generate(workload, scale)
        return True

    # -- maintenance --------------------------------------------------------

    def gc(self) -> tuple[int, int]:
        """Drop version-stale traces and crashed-writer temp files.

        Returns ``(kept, evicted)``.  Current-version entries are kept
        without being loaded (corrupt ones already self-heal on read).
        """
        if not self.cache_dir.is_dir():
            return (0, 0)
        current = f"-v{TRACE_STORE_VERSION}.trace.pkl"
        kept = 0
        evicted = 0
        for path in self.cache_dir.glob("*.trace.pkl"):
            if path.name.endswith(current):
                kept += 1
            else:
                _discard(path)
                evicted += 1
        for path in self.cache_dir.glob(".*.tmp"):
            _discard(path)
            evicted += 1
        return kept, evicted

    def summary(self) -> str:
        return f"traces: {self.generated} compiled, {self.disk_hits} loaded"


@functools.lru_cache(maxsize=None)
def _load_or_generate_cached(cache_dir: str, workload: str, scale: str) -> Trace:
    return TraceStore(cache_dir).load_or_generate(workload, scale)

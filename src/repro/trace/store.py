"""Compiled-trace memoisation in the cache directory's object-store bucket.

Generating a workload trace means building the IR kernel, running the whole
compiler pipeline and expanding the dynamic instruction stream — by far the
most expensive part of setting up a simulation point.  The in-process
``lru_cache`` in :mod:`repro.workloads.base` already deduplicates that work
*within* a process, but every worker process of a parallel sweep (and every
fresh ``run-all`` invocation) used to redo it from scratch.

:class:`TraceStore` memoises compiled traces in the ``traces/`` namespace
of the bucket the result store opened
(:class:`~repro.core.objectstore.ObjectStore`), one object per
``(workload, scale)`` plus a format version:
``traces/<workload>-<scale>-v<TRACE_STORE_VERSION>.pkl``.  It is the only
code that names a trace object.

:func:`load_trace` is the only way a process gets a workload's trace.  The
process that simulates a point — a pool worker, a fleet worker or the
driving process itself — passes the bucket root: the trace is loaded from
the bucket, or compiled and put there, at most once per process.  Two
workers that miss the same trace at the same moment both compile it; the
later put replaces the earlier one with the same trace.  Without a bucket
root the trace is the workload's own in-process memo.

Objects are pickled :class:`~repro.trace.records.Trace` objects wrapped in
a small self-describing header.  The store only ever reads objects it wrote
itself inside the experiment cache's bucket; anything undecodable or
version-mismatched is dropped and regenerated, never raised.
"""

from __future__ import annotations

import functools
import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # not imported at run time: repro.core.runner imports this module
    from repro.core.objectstore import ObjectStore
    from repro.trace.records import Trace

#: serialised-trace format version; bump when Trace/DynInstr fields change
#: (2: ``DynInstr`` lost a branch-target field nothing set)
TRACE_STORE_VERSION = 2

#: key prefix of the compiled-trace namespace
TRACE_PREFIX = "traces"


class TraceStore:
    """Compiled workload traces in a bucket, keyed by (workload, scale)."""

    def __init__(self, objects: ObjectStore) -> None:
        self.objects = objects

    def _key(self, workload: str, scale: str) -> str:
        return f"{TRACE_PREFIX}/{workload}-{scale}-v{TRACE_STORE_VERSION}.pkl"

    # -- lookup -------------------------------------------------------------

    def get(self, workload: str, scale: str) -> Trace | None:
        """Return the memoised trace, or ``None`` (dropping bad entries)."""
        from repro.trace.records import Trace

        key = self._key(workload, scale)
        data = self.objects.get(key)
        if data is None:
            # Missing, or a transient read failure: a miss, never grounds
            # for deletion.
            return None
        try:
            payload = pickle.loads(data)
        except Exception:
            # Truncated/corrupt/incompatible pickle: regenerate instead.
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != TRACE_STORE_VERSION
            or payload.get("workload") != workload
            or payload.get("scale") != scale
            or not isinstance(payload.get("trace"), Trace)
        ):
            self.objects.delete(key)
            return None
        return payload["trace"]

    # -- insertion ----------------------------------------------------------

    def put(self, workload: str, scale: str, trace: Trace) -> None:
        """Persist ``trace`` atomically (the bucket's put)."""
        payload = {
            "version": TRACE_STORE_VERSION,
            "workload": workload,
            "scale": scale,
            "trace": trace,
        }
        self.objects.put(
            self._key(workload, scale),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # -- the memoisation entry point ----------------------------------------

    def load_or_generate(self, workload: str, scale: str) -> Trace:
        """Return the trace from the bucket, compiling (and persisting) on a miss."""
        cached = self.get(workload, scale)
        if cached is not None:
            return cached
        from repro.workloads.registry import get_workload

        trace = get_workload(workload, scale).trace()
        self.put(workload, scale, trace)
        return trace

    # -- maintenance --------------------------------------------------------

    def gc(self) -> tuple[int, int]:
        """Drop version-stale traces and crashed-writer temp files.

        Returns ``(kept, evicted)``.  Current-version entries are kept
        without being loaded (corrupt ones already self-heal on read).
        """
        current = f"-v{TRACE_STORE_VERSION}.pkl"
        kept = 0
        evicted = 0
        for key in list(self.objects.list(TRACE_PREFIX)):
            if key.endswith(current):
                kept += 1
            else:
                self.objects.delete(key)
                evicted += 1
        evicted += self.objects.sweep_temp(TRACE_PREFIX)
        return kept, evicted


def load_trace(workload: str, scale: str, bucket_root: str | None = None) -> Trace:
    """The compiled trace of ``workload`` at ``scale``.

    With a ``bucket_root`` the trace comes from that bucket's
    :class:`TraceStore`, which compiles and puts it on a miss, memoised
    per process by root: a sweep grid has hundreds of points but only a
    handful of traces, and traces are immutable once generated.  Without
    one it is the workload's own in-process memo.
    """
    if bucket_root is None:
        from repro.workloads.registry import get_workload

        return get_workload(workload, scale).trace()
    return _load_or_generate_cached(bucket_root, workload, scale)


@functools.lru_cache(maxsize=None)
def _load_or_generate_cached(root: str, workload: str, scale: str) -> Trace:
    from repro.core.objectstore import ObjectStore

    return TraceStore(ObjectStore(root)).load_or_generate(workload, scale)

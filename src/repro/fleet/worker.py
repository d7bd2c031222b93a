"""The fleet worker: claim → simulate → publish, until drained or told to stop.

``python -m repro.cli worker --store-root DIR`` runs this loop against the
object-store bucket under ``DIR`` (the same directory a
:class:`~repro.api.Session` uses as its cache dir).  Any number of workers,
on any number of hosts sharing the bucket, cooperate through the
:class:`~repro.fleet.queue.LeaseQueue` alone — there is no coordinator
connection, no RPC, no shared memory:

* **claim**: take a lease on the first available task (expired leases from
  crashed workers are reclaimed on the way — see the queue module);
* **simulate**: rebuild the point from the task payload
  (:meth:`~repro.core.runner.ExperimentPoint.from_dict`, after checking
  the payload's ``version`` and ``kind``) and run it through the exact
  same :func:`~repro.core.simulator.simulate_point` the engine uses, with
  the bucket's root: the trace comes from the bucket's ``traces/``
  namespace, or is compiled and put there for the other workers, once
  per worker process — results are bit-identical to local execution by
  construction.  A task whose result object is already readable (a
  bucket shared with an earlier run) is not simulated again;
* **publish**: write the result object under the point's fingerprint in the
  bucket's ``results/`` namespace (through the same
  :class:`~repro.core.objectstore.ObjectStoreBackend` the engine's own
  result store writes with), then complete the task, which deletes its
  queue objects: the result object is the record that it is done;
* **heartbeat**: a daemon thread renews the lease at a third of its TTL
  while the simulation runs, so long points never expire under a live
  worker.  If the lease is lost anyway (e.g. the host stalled past the
  TTL), the worker still publishes — publication is idempotent and
  byte-identical across workers, so a racing re-run cannot conflict.

**Graceful drain**: SIGTERM (and SIGINT) set a stop flag; the worker
finishes the task it holds, publishes, completes it and exits 0 —
a fleet can be scaled down mid-run without losing or duplicating work.
A worker killed outright (SIGKILL, OOM, power) loses its lease to expiry
and the task is re-run elsewhere; the fault-injection tests pin both paths.
"""

from __future__ import annotations

import os
import platform
import signal
import threading
import time
import uuid
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Mapping

from repro.common.errors import ReproError
from repro.core.objectstore import ObjectStoreBackend
from repro.core.runner import ExperimentPoint
from repro.fleet.queue import (
    DEFAULT_LEASE_TTL,
    Lease,
    LeaseLostError,
    LeaseQueue,
    TaskState,
)

#: default seconds between polls of an empty queue
DEFAULT_POLL_S = 0.5

#: version stamp of every task payload (``{"version", "kind": "point",
#: **point.to_dict()}``); a worker fails a task of another version instead
#: of guessing what it means
TASK_VERSION = 1


class _Heartbeat(threading.Thread):
    """Daemon thread renewing one lease until stopped (or the lease is lost)."""

    def __init__(self, queue: LeaseQueue, lease: Lease) -> None:
        super().__init__(name=f"heartbeat-{lease.task_id[:8]}", daemon=True)
        self.queue = queue
        self.lease = lease
        self.lost = False
        # NB: not named _stop — threading.Thread uses that name internally
        self._halt = threading.Event()

    def run(self) -> None:
        interval = max(0.05, self.queue.lease_ttl / 3.0)
        while not self._halt.wait(interval):
            try:
                self.lease = self.queue.renew(self.lease)
            except LeaseLostError:
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=max(1.0, self.queue.lease_ttl))


class Worker:
    """One fleet worker process bound to a store root (see module doc)."""

    def __init__(
        self,
        store_root: str | os.PathLike[str],
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_s: float = DEFAULT_POLL_S,
        max_tasks: int | None = None,
        idle_timeout: float | None = None,
        queue: LeaseQueue | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if max_tasks is not None and max_tasks < 1:
            raise ReproError("max_tasks must be at least 1")
        if poll_s <= 0:
            raise ReproError("poll_s must be positive")
        if idle_timeout is not None and idle_timeout < 0:
            raise ReproError("idle_timeout must be non-negative")
        self.store_root = Path(store_root)
        self.backend = ObjectStoreBackend(self.store_root)
        self.queue = queue if queue is not None else LeaseQueue(
            self.backend.objects, lease_ttl=lease_ttl)
        self.worker_id = worker_id or (
            f"{platform.node() or 'host'}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.poll_s = poll_s
        self.max_tasks = max_tasks
        self.idle_timeout = idle_timeout
        self.log = log if log is not None else (lambda message: None)
        #: tasks completed / failed over this worker's life
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the loop to drain: finish the current task, then exit."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _drain(signum: int, frame: FrameType | None) -> None:
            self.log(f"worker {self.worker_id}: received signal {signum}, draining")
            self.request_stop()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    # -- the loop ------------------------------------------------------------

    def run(self) -> int:
        """Claim and execute tasks until stopped/limited; returns tasks run.

        Exits when :meth:`request_stop` was called (signal or API), after
        ``max_tasks`` executed tasks, or after ``idle_timeout`` seconds
        without claimable work (``None``: poll forever).
        """
        executed = 0
        idle_since: float | None = None
        while not self._stop.is_set():
            if self.max_tasks is not None and executed >= self.max_tasks:
                break
            lease = self.queue.claim(self.worker_id)
            if lease is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    self.idle_timeout is not None
                    and now - idle_since >= self.idle_timeout
                ):
                    break
                self._stop.wait(self.poll_s)
                continue
            idle_since = None
            self.execute(lease)
            executed += 1
        return executed

    # -- one task ------------------------------------------------------------

    def execute(self, lease: Lease) -> bool:
        """Run one leased task to completion or failure; returns success."""
        try:
            point = _task_point(lease.payload)
        except ReproError as exc:
            self.log(f"worker {self.worker_id}: bad task {lease.task_id[:12]}: {exc}")
            self.queue.fail(lease, f"undecodable task: {exc}")
            self.failed += 1
            return False
        if self.backend.get(point.fingerprint()) is not None:
            self.queue.complete(lease)
            self.completed += 1
            self.log(f"worker {self.worker_id}: {point} already published "
                     f"[{lease.task_id[:12]}]")
            return True
        from repro.core.simulator import simulate_point

        heartbeat = _Heartbeat(self.queue, lease)
        heartbeat.start()
        started = time.perf_counter()
        try:
            result = simulate_point(point, str(self.backend.objects.root))
        except Exception as exc:  # noqa: BLE001 - a task failure, not a crash
            heartbeat.stop()
            state = self.queue.fail(heartbeat.lease, repr(exc))
            self.failed += 1
            self.log(
                f"worker {self.worker_id}: task {lease.task_id[:12]} failed "
                f"({exc!r}) -> {state!r}"
            )
            return False
        wall = time.perf_counter() - started
        heartbeat.stop()
        self.backend.put(point, result)
        self.queue.complete(heartbeat.lease)
        self.completed += 1
        self.log(
            f"worker {self.worker_id}: {point} done in {wall:.2f}s "
            f"[{lease.task_id[:12]}]"
        )
        return True

    def summary(self) -> str:
        """One-line counters summary (printed by the CLI on exit)."""
        return (
            f"worker {self.worker_id}: {self.completed} completed, "
            f"{self.failed} failed, {self.queue.describe()}"
        )


def _task_point(payload: Mapping[str, Any]) -> ExperimentPoint:
    """The point a task payload names; :class:`ReproError` if it names none.

    Extra fields (older dispatchers stamped a ``kernel``) are ignored:
    every execution strategy is bit-identical by contract.
    """
    if payload.get("version") != TASK_VERSION:
        raise ReproError(
            f"unsupported fleet task version {payload.get('version')!r} "
            f"(this worker speaks version {TASK_VERSION})"
        )
    if payload.get("kind") != "point":
        raise ReproError(f"unknown fleet task kind {payload.get('kind')!r}")
    return ExperimentPoint.from_dict(payload)


__all__ = ["Worker", "DEFAULT_POLL_S", "TASK_VERSION", "TaskState"]

"""The fleet dispatcher: submit points, then watch the queue drain.

This is the engine-side half of the fleet.  Where a worker is a pure
consumer of the :class:`~repro.fleet.queue.LeaseQueue`, the dispatcher is
the producer and supervisor:

* :meth:`FleetDispatcher.submit` turns experiment points into queue tasks
  (the engine submits only the points its store lacks), returning a
  :class:`FleetBatch`;
* :meth:`FleetDispatcher.watch` polls until every task of the batch is
  finished — absent from the queue, its result object published —
  reaping expired leases so crashed workers cannot stall the run,
  restarting spawned worker processes that died (bounded), and raising
  :class:`~repro.common.errors.ReproError` when a task is dead-lettered
  or the timeout elapses — a poisoned task fails the run loudly instead of
  wedging it.

The dispatcher reads no result: the engine reads the published objects
through its own result store, so a fleet-computed result is a disk hit
like any other.

With ``spawn > 0`` the dispatcher launches that many local ``repro worker``
subprocesses against the same store root; they write their progress to
the driving process's stderr (their stdout is discarded, so a ``--format
json`` document stays clean).  With ``spawn == 0`` it only produces and
watches — workers are expected to be running elsewhere (other processes,
other hosts sharing the bucket), which is the multi-host deployment
shape.  The two compose: externally started workers and spawned ones
drain the same queue cooperatively.  Drivers and workers that share a
bucket must run the same version of this package.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.common.errors import ReproError
from repro.core.objectstore import ObjectStoreBackend
from repro.core.runner import ExperimentPoint
from repro.fleet.queue import LeaseQueue, TaskState
from repro.fleet.worker import TASK_VERSION

#: default seconds between dispatcher polls of the queue
DEFAULT_WATCH_POLL_S = 0.2


@dataclass(frozen=True)
class FleetBatch:
    """One submitted batch: its points' task ids, in submit order."""

    task_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.task_ids)


@dataclass(frozen=True)
class FleetStatus:
    """A point-in-time snapshot of a batch's progress."""

    total: int
    done: int
    claimed: int
    pending: int
    failed: int
    dead: int

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def describe(self) -> str:
        """Short human-readable progress line (example drivers print this)."""
        line = f"{self.done}/{self.total} done"
        if self.claimed:
            line += f", {self.claimed} running"
        if self.pending:
            line += f", {self.pending} pending"
        if self.failed:
            line += f", {self.failed} with failures"
        if self.dead:
            line += f", {self.dead} dead-lettered"
        return line


class FleetDispatcher:
    """Produce and supervise fleet work for one store root."""

    def __init__(self, store_root: str | os.PathLike[str], spawn: int = 0) -> None:
        if spawn < 0:
            raise ReproError("spawn must be non-negative")
        self.store_root = Path(store_root)
        self.queue = LeaseQueue(ObjectStoreBackend(self.store_root).objects)
        self.spawn = spawn
        #: spawned-worker restarts allowed before giving up (3 per slot)
        self.max_restarts = 3 * spawn
        self.restarts = 0
        self._procs: list[subprocess.Popen[bytes]] = []

    # -- submission ----------------------------------------------------------

    def submit(self, points: Sequence[ExperimentPoint]) -> FleetBatch:
        """Enqueue one task per point; workers may start pulling immediately.

        A task's id is its point's fingerprint and its payload is the
        point's :meth:`~repro.core.runner.ExperimentPoint.to_dict` block,
        stamped with the task version.  Submission is idempotent: the same
        point twice lands on the same task.
        """
        task_ids: list[str] = []
        for point in points:
            key = point.to_dict()
            task_ids.append(key["fingerprint"])
            self.queue.submit(
                key["fingerprint"], {"version": TASK_VERSION, "kind": "point", **key})
        if self.spawn and task_ids:
            self._ensure_workers()
        return FleetBatch(task_ids=tuple(task_ids))

    # -- supervision ---------------------------------------------------------

    def status(self, batch: FleetBatch) -> FleetStatus:
        """The batch's current progress (one queue scan, no side effects).

        A task of the batch that is absent from the queue is done: a
        worker deletes a task's queue objects only after publishing its
        result object.
        """
        done = claimed = pending = failed = dead = 0
        for task_id in dict.fromkeys(batch.task_ids):
            state = self.queue.state(task_id)
            if state & TaskState.DEAD:
                dead += 1
            elif state & TaskState.CLAIMED:
                claimed += 1
            elif state & TaskState.PENDING:
                pending += 1
            else:
                done += 1
            if state & TaskState.FAILED:
                failed += 1
        return FleetStatus(
            total=len(dict.fromkeys(batch.task_ids)),
            done=done,
            claimed=claimed,
            pending=pending,
            failed=failed,
            dead=dead,
        )

    def watch(
        self,
        batch: FleetBatch,
        timeout: float | None = None,
        poll_s: float | None = None,
    ) -> FleetStatus:
        """Block until every task of ``batch`` is done; supervise on the way.

        Each poll tick reaps expired leases (so a SIGKILLed worker's task
        re-enters circulation after its lease TTL even if no other worker is
        scanning), restarts dead spawned workers within the restart budget,
        and fails fast — :class:`~repro.common.errors.ReproError` — when a
        task is dead-lettered, when unfinished work remains but no worker
        can make progress, or when ``timeout`` seconds elapse.
        """
        poll = DEFAULT_WATCH_POLL_S if poll_s is None else poll_s
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self.queue.reap()
            status = self.status(batch)
            if status.dead:
                letters = self.queue.dead_letters()
                details = "; ".join(
                    f"{task_id[:12]}: {letters.get(task_id, {}).get('reason', '?')}"
                    for task_id in batch.task_ids
                    if task_id in letters
                )
                raise ReproError(
                    f"{status.dead} fleet task(s) dead-lettered after "
                    f"{self.queue.retry_budget} attempt(s): {details}"
                )
            if status.complete:
                return status
            if not self._maintain_workers() and self.spawn:
                raise ReproError(
                    "all spawned fleet workers exited and the restart budget "
                    f"({self.max_restarts}) is spent with "
                    f"{status.total - status.done} task(s) unfinished"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ReproError(
                    f"fleet batch timed out after {timeout:g}s "
                    f"({status.describe()})"
                )
            time.sleep(poll)

    # -- spawned workers -----------------------------------------------------

    def _worker_command(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--store-root",
            str(self.store_root),
            "--poll",
            f"{DEFAULT_WATCH_POLL_S:g}",
        ]

    def _spawn_worker(self) -> subprocess.Popen[bytes]:
        env = dict(os.environ)
        # make the repro package importable from a source checkout: workers
        # must resolve the same code the dispatcher runs
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else os.pathsep.join((package_root, existing))
        )
        # stderr is inherited: worker progress lines join the driver's
        return subprocess.Popen(
            self._worker_command(), stdout=subprocess.DEVNULL, env=env)

    def _ensure_workers(self) -> None:
        while len(self._procs) < self.spawn:
            self._procs.append(self._spawn_worker())

    def _maintain_workers(self) -> bool:
        """Restart dead spawned workers; False when no worker is running and
        the restart budget is exhausted (with ``spawn == 0``: always True —
        external workers are not this dispatcher's to supervise)."""
        if not self.spawn:
            return True
        self._ensure_workers()
        for slot, proc in enumerate(self._procs):
            if proc.poll() is None:
                continue
            if self.restarts >= self.max_restarts:
                continue
            self.restarts += 1
            self._procs[slot] = self._spawn_worker()
        return any(proc.poll() is None for proc in self._procs)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain spawned workers: SIGTERM, wait, then SIGKILL stragglers."""
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self._procs.clear()

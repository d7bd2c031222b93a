"""The fleet dispatcher: submit points, watch the queue, collect results.

This is the engine-side half of the fleet.  Where a worker is a pure
consumer of the :class:`~repro.fleet.queue.LeaseQueue`, the dispatcher is
the producer and supervisor:

* :meth:`FleetDispatcher.submit` turns experiment points into queue tasks
  (skipping points whose fingerprint-keyed result object already exists —
  the fleet's cache hit), returning a :class:`FleetBatch`;
* :meth:`FleetDispatcher.watch` polls until the batch completes, reaping
  expired leases so crashed workers cannot stall the run, restarting
  spawned worker processes that died (bounded), and raising
  :class:`~repro.common.errors.ReproError` when a task is dead-lettered
  or the timeout elapses — a poisoned task fails the run loudly instead of
  wedging it;
* :meth:`FleetDispatcher.collect` reads every result object back through
  the same :class:`~repro.core.objectstore.ObjectStoreBackend` the local
  result store uses, so a fleet-computed result is indistinguishable from
  a locally computed one.

With ``spawn > 0`` the dispatcher launches that many local ``repro worker``
subprocesses against the same store root (their stdout/stderr go to log
files under ``<store-root>/fleet/``).  With ``spawn == 0`` it only
produces and watches — workers are expected to be running elsewhere
(other processes, other hosts sharing the bucket), which is the
multi-host deployment shape.  The two compose: externally started workers
and spawned ones drain the same queue cooperatively.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.common.errors import ReproError
from repro.core.objectstore import ObjectStoreBackend
from repro.core.results import SimulationResult
from repro.core.runner import ExperimentPoint
from repro.fleet.queue import LeaseQueue, TaskState
from repro.fleet.tasks import FleetTask

#: default seconds between dispatcher polls of the queue
DEFAULT_WATCH_POLL_S = 0.2

#: subdirectory of the store root collecting spawned-worker log files
FLEET_LOG_SUBDIR = "fleet"


@dataclass(frozen=True)
class FleetBatch:
    """One submitted batch: the points and their task ids, in submit order."""

    points: tuple[ExperimentPoint, ...]
    task_ids: tuple[str, ...]
    #: ids that were already DONE with a readable result at submit time
    already_done: frozenset[str]

    def __len__(self) -> int:
        return len(self.points)


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
    """Produce, supervise and harvest fleet work for one store root."""

    def __init__(self, store_root: str | os.PathLike[str], spawn: int = 0) -> None:
        if spawn < 0:
            raise ReproError("spawn must be non-negative")
        self.store_root = Path(store_root)
        self.backend = ObjectStoreBackend(self.store_root)
        self.queue = LeaseQueue(self.backend.objects)
        self.spawn = spawn
        #: spawned-worker restarts allowed before giving up (3 per slot)
        self.max_restarts = 3 * spawn
        self.restarts = 0
        self._procs: list[subprocess.Popen[bytes]] = []
        self._logs: list[Any] = []

    # -- submission ----------------------------------------------------------

    def submit(self, points: Sequence[ExperimentPoint]) -> FleetBatch:
        """Enqueue tasks for ``points``; workers may start pulling immediately.

        Points whose result object already exists under their fingerprint
        (with a ``DONE`` marker) are not re-enqueued — they are recorded in
        :attr:`FleetBatch.already_done` and satisfied straight from the
        bucket at :meth:`collect` time.  Submission is idempotent: the same
        point twice lands on the same task.
        """
        task_ids: list[str] = []
        already: set[str] = set()
        for point in points:
            task = FleetTask(point.workload, point.scale, point.config)
            task_id = task.task_id()
            task_ids.append(task_id)
            if (
                self.queue.state(task_id) & TaskState.DONE
                and self.backend.get(task_id) is not None
            ):
                already.add(task_id)
                continue
            self.queue.submit(task_id, task.to_payload())
        batch = FleetBatch(
            points=tuple(points),
            task_ids=tuple(task_ids),
            already_done=frozenset(already),
        )
        if self.spawn and len(already) < len(set(task_ids)):
            self._ensure_workers()
        return batch

    # -- supervision ---------------------------------------------------------

    def status(self, batch: FleetBatch) -> FleetStatus:
        """The batch's current progress (one queue scan, no side effects)."""
        done = claimed = pending = failed = dead = 0
        for task_id in dict.fromkeys(batch.task_ids):
            if task_id in batch.already_done:
                done += 1
                continue
            state = self.queue.state(task_id)
            if state & TaskState.DONE:
                done += 1
            elif state & TaskState.DEAD:
                dead += 1
            elif state & TaskState.CLAIMED:
                claimed += 1
            else:
                pending += 1
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

    # -- harvest -------------------------------------------------------------

    def collect(self, batch: FleetBatch) -> list[SimulationResult]:
        """The batch's results, in submit order.

        Every task must be ``DONE`` (call :meth:`watch` first); a done
        marker whose result object is missing or undecodable raises —
        that would mean the bucket lost data, which must never be papered
        over silently.
        """
        results: list[SimulationResult] = []
        for point, task_id in zip(batch.points, batch.task_ids, strict=True):
            result = self.backend.get(task_id)
            if result is None:
                raise ReproError(
                    f"fleet task {task_id[:12]} ({point}) has no readable "
                    "result object — bucket corrupted or task incomplete"
                )
            results.append(result)
        return results

    # -- spawned workers -----------------------------------------------------

    def _worker_command(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--store-root",
            str(self.store_root),
            "--lease-ttl",
            f"{self.queue.lease_ttl:g}",
            "--poll",
            f"{DEFAULT_WATCH_POLL_S:g}",
        ]

    def _spawn_worker(self, slot: int) -> subprocess.Popen[bytes]:
        log_dir = self.store_root / FLEET_LOG_SUBDIR
        log_dir.mkdir(parents=True, exist_ok=True)
        log = open(  # noqa: SIM115 - lifetime managed by shutdown()
            log_dir / f"worker-{slot}-{os.getpid()}.log", "ab")
        self._logs.append(log)
        env = dict(os.environ)
        # make the repro package importable from a source checkout: workers
        # must resolve the same code the dispatcher runs
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else os.pathsep.join((package_root, existing))
        )
        return subprocess.Popen(
            self._worker_command(), stdout=log, stderr=subprocess.STDOUT, env=env,
        )

    def _ensure_workers(self) -> None:
        while len(self._procs) < self.spawn:
            self._procs.append(self._spawn_worker(len(self._procs)))

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
            self._procs[slot] = self._spawn_worker(slot)
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
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass
        self._logs.clear()

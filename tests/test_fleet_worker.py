"""Fault-injection tests for the fleet worker (:mod:`repro.fleet.worker`).

These tests pin the crash-recovery contract with *real* process faults:

* a worker SIGKILLed mid-lease loses the lease to expiry; the task is
  reclaimed and a second worker re-runs it to a byte-identical result;
* SIGTERM drains gracefully — the worker finishes, releases and exits 0;
* a poisoned task (undecodable / unsimulatable) burns its retry budget and
  lands in the dead-letter prefix instead of wedging the queue.

Subprocess tests use a medium-scale point (~1 s of simulation) so the
"mid-lease" window is wide enough to hit deterministically; in-process
tests use an injected queue with ``claim_grace=0`` for speed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_store_backends import result_object

from repro.common.errors import ReproError
from repro.core.config import get_config
from repro.core.objectstore import ObjectStoreBackend
from repro.core.simulator import simulate_point
from repro.fleet.queue import LeaseQueue, TaskState
from repro.fleet.tasks import FleetTask
from repro.fleet.worker import Worker

REPO_ROOT = Path(__file__).resolve().parents[1]

#: generous ceiling on every wait loop; the loops exit as soon as the
#: condition holds, so the ceiling only matters on an overloaded host
DEADLINE_S = 60.0


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def spawn_worker(store_root: Path, *extra: str) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro.cli", "worker",
        "--store-root", str(store_root), "--poll", "0.05", *extra,
    ]
    return subprocess.Popen(
        command, env=worker_env(), cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def wait_until(predicate, what: str, deadline_s: float = DEADLINE_S) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError(f"timed out waiting for {what}")


def submit_point(store_root: Path, workload: str, scale: str) -> tuple[LeaseQueue, FleetTask]:
    backend = ObjectStoreBackend(store_root)
    queue = LeaseQueue(backend.objects)
    task = FleetTask(workload=workload, scale=scale, config=get_config("reference"))
    assert queue.submit(task.task_id(), task.to_payload()) is True
    return queue, task


class TestTaskPayloads:
    """Queue payloads decode across versions of the dispatcher."""

    def test_payload_round_trips(self):
        task = FleetTask(workload="trfd", scale="tiny", config=get_config("ooo-late-sle"))
        payload = json.loads(json.dumps(task.to_payload()))
        decoded = FleetTask.from_payload(payload)
        assert decoded == task
        assert decoded.task_id() == payload["fingerprint"] == task.task_id()

    def test_payload_naming_a_kernel_is_the_same_task(self, tmp_path):
        # dispatchers that had a kernel setting stamped it into every
        # payload; a worker now ignores it and publishes the same result
        task = FleetTask(workload="trfd", scale="tiny", config=get_config("ooo"))
        payload = {**task.to_payload(), "kernel": "scalar"}
        assert FleetTask.from_payload(payload).task_id() == task.task_id()

        backend = ObjectStoreBackend(tmp_path)
        queue = LeaseQueue(backend.objects)
        assert queue.submit(task.task_id(), payload) is True
        worker = Worker(tmp_path, worker_id="parent-payload", max_tasks=1,
                        poll_s=0.05)
        assert worker.run() == 1
        assert worker.completed == 1
        assert queue.state(task.task_id()) & TaskState.DONE
        reference = simulate_point(task.workload, task.scale, task.config)
        expected = result_object(task.point(), reference)
        assert backend.objects.get(backend._object_key(task.task_id())) == expected

    def test_wrong_fingerprint_is_refused(self):
        task = FleetTask(workload="trfd", scale="tiny", config=get_config("reference"))
        payload = {**task.to_payload(), "fingerprint": "0" * 64}
        with pytest.raises(ReproError, match="fingerprint mismatch"):
            FleetTask.from_payload(payload)


class TestSigkillRecovery:
    def test_killed_worker_loses_lease_and_task_reruns_byte_identically(
        self, tmp_path
    ):
        # a ~1 s point: the worker is guaranteed to be mid-simulation (and
        # therefore mid-lease) when we observe the CLAIMED state
        queue, task = submit_point(tmp_path, "tomcatv", "medium")
        task_id = task.task_id()

        process = spawn_worker(tmp_path, "--lease-ttl", "0.75")
        try:
            wait_until(
                lambda: queue.state(task_id) & TaskState.CLAIMED,
                "the worker to claim the task",
            )
            assert not queue.state(task_id) & TaskState.DONE
            process.send_signal(signal.SIGKILL)  # no drain, no release
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
            process.communicate()
        assert process.returncode == -signal.SIGKILL

        # the orphaned lease expires on the wall clock; reap reclaims it
        wait_until(
            lambda: not queue.state(task_id) & TaskState.CLAIMED,
            "the orphaned lease to expire",
        )
        swept = queue.reap()
        assert swept["reclaimed"] == 1
        assert queue.state(task_id) == TaskState.PENDING | TaskState.FAILED

        # a second worker (in-process: fast and deterministic) re-runs it
        second = Worker(tmp_path, worker_id="second", max_tasks=1, poll_s=0.05)
        assert second.run() == 1
        assert second.completed == 1
        assert queue.state(task_id) & TaskState.DONE

        # ... to the byte-identical result object the engine's own result
        # store would have written locally
        reference = simulate_point(task.workload, task.scale, task.config)
        expected = result_object(task.point(), reference)
        backend = ObjectStoreBackend(tmp_path)
        stored = backend.objects.get(backend._object_key(task_id))
        assert stored == expected


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        queue, task = submit_point(tmp_path, "nasa7", "small")
        task_id = task.task_id()

        process = spawn_worker(tmp_path, "--lease-ttl", "30")
        try:
            # claimed or already done — either way the worker holds no
            # un-drainable state when the signal lands
            wait_until(
                lambda: queue.state(task_id)
                & (TaskState.CLAIMED | TaskState.DONE),
                "the worker to pick up the task",
            )
            process.send_signal(signal.SIGTERM)
            _stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        # the in-flight task was finished, not abandoned
        assert queue.state(task_id) & TaskState.DONE
        assert queue.counts()["claimed"] == 0

    def test_max_tasks_worker_exits_on_its_own(self, tmp_path):
        queue, task = submit_point(tmp_path, "nasa7", "small")
        process = spawn_worker(tmp_path, "--max-tasks", "1", "--lease-ttl", "30")
        _stdout, stderr = process.communicate(timeout=DEADLINE_S)
        assert process.returncode == 0, stderr
        assert queue.state(task.task_id()) & TaskState.DONE
        assert "1 completed" in stderr


class TestPoisonedTasks:
    def poisoned_queue(self, tmp_path, retry_budget: int = 2) -> LeaseQueue:
        backend = ObjectStoreBackend(tmp_path)
        return LeaseQueue(
            backend.objects, retry_budget=retry_budget, claim_grace=0.0)

    def test_unsimulatable_task_dead_letters_after_retry_budget(self, tmp_path):
        queue = self.poisoned_queue(tmp_path)
        task = FleetTask(
            workload="no-such-workload", scale="small",
            config=get_config("reference"),
        )
        task_id = task.task_id()
        queue.submit(task_id, task.to_payload())

        worker = Worker(
            tmp_path, worker_id="poison-eater", queue=queue,
            poll_s=0.05, idle_timeout=0.2,
        )
        executed = worker.run()  # exits via idle timeout once buried
        assert executed == 2  # exactly the retry budget, then never again
        assert worker.failed == 2 and worker.completed == 0
        assert queue.state(task_id) == TaskState.DEAD | TaskState.FAILED

        letters = queue.dead_letters()
        assert task_id in letters
        assert letters[task_id]["failures"] == 2

    def test_undecodable_payload_is_failed_not_crashed(self, tmp_path):
        queue = self.poisoned_queue(tmp_path, retry_budget=1)
        queue.submit("nonsense", {"version": 999, "kind": "mystery"})
        worker = Worker(
            tmp_path, worker_id="confused", queue=queue,
            poll_s=0.05, idle_timeout=0.2,
        )
        assert worker.run() == 1
        assert worker.failed == 1
        assert queue.state("nonsense") == TaskState.DEAD | TaskState.FAILED
        reason = queue.dead_letters()["nonsense"]["reason"]
        assert "undecodable task" in reason


class TestWorkerConstruction:
    def test_worker_ids_are_unique_by_default(self, tmp_path):
        first = Worker(tmp_path)
        second = Worker(tmp_path)
        assert first.worker_id != second.worker_id

    def test_validation(self, tmp_path):
        with pytest.raises(ReproError, match="max_tasks"):
            Worker(tmp_path, max_tasks=0)
        with pytest.raises(ReproError, match="poll_s"):
            Worker(tmp_path, poll_s=0.0)

    def test_negative_idle_timeout_is_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="idle_timeout"):
            Worker(tmp_path, idle_timeout=-5)
        assert Worker(tmp_path, idle_timeout=0).idle_timeout == 0

    def test_cli_rejects_negative_idle_timeout(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["worker", "--store-root", str(tmp_path), "--idle-timeout", "-5"]
        assert main(argv) == 2
        assert "--idle-timeout must be non-negative" in capsys.readouterr().err

    def test_summary_counts(self, tmp_path):
        worker = Worker(tmp_path, worker_id="w-test")
        assert "w-test" in worker.summary()
        assert "0 completed" in worker.summary()

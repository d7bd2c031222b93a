"""A lease-based work queue living entirely inside an :class:`ObjectStore`.

Coordination state is nothing but objects under a ``queue/`` prefix of the
same bucket that holds results — any storage that implements the
S3 quartet (``put``/``get``/``list``/``delete``) hosts the whole fleet::

    queue/tasks/<task_id>.json                      the work item (immutable)
    queue/claims/<task_id>/<attempt>/<claim>.json   claim-race entrants
    queue/leases/<task_id>.json                     the active lease (heartbeats re-put)
    queue/failed/<task_id>/<claim>.json             one failure record per attempt
    queue/dead/<task_id>.json                       dead-letter marker

**Completion** leaves nothing behind: :meth:`LeaseQueue.complete` deletes
every queue object of the task, whose result object (published first) is
the only record that it is finished — a finished task reads ``ABSENT`` —
and each delete removes the directories it empties.
The completion markers of a retired ``queue/done/`` prefix are neither
read nor deleted.

**Claiming** is an atomic-put claim race: every contender writes a claim
object with a unique, *timestamp-ordered* name (each write is itself atomic
— unique temp name + rename), lists the attempt's claim prefix, and the
lexicographically first claim wins (:meth:`ObjectStore.list` yields keys in
sorted order as part of the backend contract, so every contender computes
the same winner).  The winner writes the lease and confirms ownership by
reading it back after a short grace period — a last-writer-wins lease put by
a straggler with an earlier clock is detected there and the loser backs off.

**Liveness** is heartbeat + expiry: the lease carries an ``expires_at``
wall-clock deadline and the owning worker re-puts it (renews) well before
expiry.  A worker that dies — crashed process, SIGKILL, lost host — simply
stops renewing; any other worker (or the dispatcher's :meth:`LeaseQueue.reap`)
that finds the expired lease records a failure for that attempt and returns
the task to ``PENDING``.  Failure records are keyed by the dead lease's
claim name, so two racers reaping the same expiry write the *same* record —
the retry budget can never be double-charged.

**Retry and dead-letter**: each attempt that fails (worker exception, or an
expired lease) consumes one unit of the retry budget; a task whose failures
reach the budget is *buried* — a marker under ``queue/dead/`` — instead of
wedging the run by being retried forever.  Re-submitting a buried task
(a fresh :meth:`LeaseQueue.submit`) clears its history and grants a fresh
budget.

**Safety** ultimately does not rest on the lease protocol at all: tasks are
keyed by result fingerprint and every worker publishes byte-identical
result objects under that fingerprint, so even a pathological double-claim
(e.g. extreme cross-host clock skew defeating the read-back check) wastes
work but can never corrupt a result.  Leases are an *efficiency* mechanism;
idempotent publication is the correctness mechanism.
"""

from __future__ import annotations

import enum
import json
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping

from repro.common.errors import ReproError
from repro.core.objectstore import ObjectStore

#: key prefix of the queue namespace inside the bucket
QUEUE_PREFIX = "queue"

#: default seconds a lease lives without renewal before it may be reclaimed
DEFAULT_LEASE_TTL = 30.0

#: default attempts (initial + retries) before a task is dead-lettered
DEFAULT_RETRY_BUDGET = 3

#: seconds between writing the lease and the confirming read-back
DEFAULT_CLAIM_GRACE = 0.01


class TaskState(enum.IntFlag):
    """Bitwise task state: lifecycle phase, OR'd with failure history.

    Exactly one of ``PENDING``/``CLAIMED``/``DEAD`` is set for a queued
    task (``ABSENT`` — the empty flag — for a finished or unknown one);
    ``FAILED`` is OR'd in whenever the task has recorded failures, so
    ``PENDING | FAILED`` reads as "awaiting retry".
    """

    ABSENT = 0
    PENDING = 1
    CLAIMED = 2
    FAILED = 4
    DEAD = 8


class LeaseLostError(ReproError):
    """The caller's lease is no longer the task's active lease.

    Raised by :meth:`LeaseQueue.renew` when the lease expired and was
    reclaimed (or, pathologically, stolen) between heartbeats.  The worker
    must stop charging work to this lease; the result it may still publish
    remains valid because publication is idempotent.
    """


@dataclass(frozen=True)
class Lease:
    """A claimed task: proof of (temporary, renewable) ownership."""

    #: the task's queue id (= the point's result fingerprint)
    task_id: str
    #: full object key of the winning claim — the lease's identity
    claim: str
    #: the owning worker's self-chosen id (diagnostics only)
    worker: str
    #: zero-based attempt number this lease runs
    attempt: int
    #: wall-clock deadline after which the lease may be reclaimed
    expires_at: float
    #: the task payload (see :mod:`repro.fleet.worker`)
    payload: Mapping[str, Any]


class LeaseQueue:
    """Lease-based task queue over an :class:`ObjectStore` (see module doc)."""

    def __init__(
        self,
        objects: ObjectStore,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        clock: Callable[[], float] = time.time,
        claim_grace: float = DEFAULT_CLAIM_GRACE,
    ) -> None:
        if lease_ttl <= 0:
            raise ReproError("lease_ttl must be positive")
        if retry_budget < 1:
            raise ReproError("retry_budget must be at least 1")
        self.objects = objects
        self.lease_ttl = lease_ttl
        self.retry_budget = retry_budget
        self.clock = clock
        self.claim_grace = claim_grace

    # -- keys ----------------------------------------------------------------

    def _tasks_prefix(self) -> str:
        return f"{QUEUE_PREFIX}/tasks"

    def _task_key(self, task_id: str) -> str:
        return f"{self._tasks_prefix()}/{task_id}.json"

    def _lease_key(self, task_id: str) -> str:
        return f"{QUEUE_PREFIX}/leases/{task_id}.json"

    def _dead_prefix(self) -> str:
        return f"{QUEUE_PREFIX}/dead"

    def _dead_key(self, task_id: str) -> str:
        return f"{self._dead_prefix()}/{task_id}.json"

    def _claims_root(self, task_id: str) -> str:
        return f"{QUEUE_PREFIX}/claims/{task_id}"

    def _claims_prefix(self, task_id: str, attempt: int) -> str:
        return f"{self._claims_root(task_id)}/{attempt:04d}"

    def _claim_key(self, task_id: str, attempt: int, stamp_ns: int) -> str:
        # unique and timestamp-ordered: the lexicographically first claim
        # under the attempt prefix wins the race (see module doc)
        return (
            f"{self._claims_prefix(task_id, attempt)}/"
            f"{stamp_ns:020d}-{uuid.uuid4().hex}.json"
        )

    def _failed_prefix(self, task_id: str) -> str:
        return f"{QUEUE_PREFIX}/failed/{task_id}"

    def _failure_key(self, task_id: str, claim: str) -> str:
        # keyed by the failing attempt's claim name: reaping the same dead
        # lease twice writes the same object, so budgets never double-charge
        return f"{self._failed_prefix(task_id)}/{claim.rsplit('/', 1)[-1]}"

    # -- tiny JSON-object helpers --------------------------------------------

    def _read(self, key: str) -> dict[str, Any] | None:
        data = self.objects.get(key)
        if data is None:
            return None
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return decoded if isinstance(decoded, dict) else None

    def _write(self, key: str, document: Mapping[str, Any]) -> None:
        self.objects.put(key, json.dumps(document, sort_keys=True).encode("utf-8"))

    # -- submission ----------------------------------------------------------

    def submit(self, task_id: str, payload: Mapping[str, Any]) -> bool:
        """Enqueue a task; returns whether new work was actually added.

        Idempotent by id: a task that is already pending or claimed is
        left untouched (``False``).  A finished task left no queue object,
        so submitting it again enqueues it anew.  A *dead-lettered* task is
        revived — its failure history and dead marker are cleared and it
        re-enters ``PENDING`` with a fresh retry budget (``True``): a new
        submission is an explicit statement that the work is wanted again.
        """
        if not task_id or "/" in task_id:
            raise ReproError(f"invalid task id {task_id!r}")
        if self.objects.exists(self._dead_key(task_id)):
            self._clear_history(task_id)
            self._write(self._task_key(task_id), dict(payload))
            return True
        if self.objects.exists(self._task_key(task_id)):
            return False
        self._write(self._task_key(task_id), dict(payload))
        return True

    def _clear_history(self, task_id: str) -> None:
        for key in list(self.objects.list(self._failed_prefix(task_id))):
            self.objects.delete(key)
        for key in list(self.objects.list(self._claims_root(task_id))):
            self.objects.delete(key)
        self.objects.delete(self._dead_key(task_id))
        self.objects.delete(self._lease_key(task_id))

    # -- inspection ----------------------------------------------------------

    def task_ids(self) -> Iterator[str]:
        """The ids of every queued (unfinished) task, in sorted order."""
        for key in self.objects.list(self._tasks_prefix()):
            name = key.rsplit("/", 1)[-1]
            if name.endswith(".json"):
                yield name[: -len(".json")]

    def payload(self, task_id: str) -> dict[str, Any] | None:
        """The submitted task payload, or ``None`` for an unknown id."""
        return self._read(self._task_key(task_id))

    def _failures(self, task_id: str) -> int:
        return sum(1 for _ in self.objects.list(self._failed_prefix(task_id)))

    def _active_lease(self, task_id: str) -> dict[str, Any] | None:
        """The current lease document, or ``None`` (absent or unparsable)."""
        return self._read(self._lease_key(task_id))

    def state(self, task_id: str) -> TaskState:
        """The task's bitwise :class:`TaskState` (``ABSENT``: finished or unknown)."""
        state = TaskState.ABSENT
        if self.objects.exists(self._dead_key(task_id)):
            state |= TaskState.DEAD
        elif self.objects.exists(self._task_key(task_id)):
            lease = self._active_lease(task_id)
            if lease is not None and self._expiry(lease) > self.clock():
                state |= TaskState.CLAIMED
            else:
                state |= TaskState.PENDING
        if state is not TaskState.ABSENT and self._failures(task_id):
            state |= TaskState.FAILED
        return state

    def counts(self) -> dict[str, int]:
        """``{state name: task count}`` over every queued task (lower-case keys)."""
        tally = {"pending": 0, "claimed": 0, "dead": 0, "failed": 0}
        for task_id in self.task_ids():
            state = self.state(task_id)
            if state & TaskState.DEAD:
                tally["dead"] += 1
            elif state & TaskState.CLAIMED:
                tally["claimed"] += 1
            elif state & TaskState.PENDING:
                tally["pending"] += 1
            if state & TaskState.FAILED:
                tally["failed"] += 1
        return tally

    @staticmethod
    def _expiry(lease: Mapping[str, Any]) -> float:
        expiry = lease.get("expires_at")
        return float(expiry) if isinstance(expiry, (int, float)) else 0.0

    # -- claiming ------------------------------------------------------------

    def claim(self, worker: str) -> Lease | None:
        """Claim the first available task, or ``None`` when none is claimable.

        Scans tasks in sorted-id order; expired leases found on the way are
        reclaimed (failure recorded, task returned to ``PENDING``) before the
        claim race runs, so crashed workers' tasks re-enter circulation
        without any separate janitor process.
        """
        for task_id in self.task_ids():
            lease = self._try_claim(task_id, worker)
            if lease is not None:
                return lease
        return None

    def _try_claim(self, task_id: str, worker: str) -> Lease | None:
        if self.objects.exists(self._dead_key(task_id)):
            return None
        now = self.clock()
        lease = self._active_lease(task_id)
        if lease is not None:
            if self._expiry(lease) > now:
                return None  # live lease: someone else is on it
            self._expire(task_id, lease)
        attempt = self._failures(task_id)
        if attempt >= self.retry_budget:
            self._bury(task_id, reason="retry budget exhausted")
            return None

        # -- the claim race: unique timestamp-ordered atomic put, then list.
        # the stamp derives from the *injected* clock (not time.time_ns), so
        # tests driving the protocol on simulated time order claims correctly
        claim = self._claim_key(task_id, attempt, int(now * 1_000_000_000))
        self._write(claim, {"worker": worker, "claimed_at": now})
        entrants = list(self.objects.list(self._claims_prefix(task_id, attempt)))
        if not entrants or entrants[0] != claim:
            self.objects.delete(claim)
            return None

        # -- we won the race: take the lease, then confirm ownership.
        expires_at = self.clock() + self.lease_ttl
        self._write(
            self._lease_key(task_id),
            {
                "task": task_id,
                "claim": claim,
                "worker": worker,
                "attempt": attempt,
                "expires_at": expires_at,
            },
        )
        if self.claim_grace:
            time.sleep(self.claim_grace)
        confirmed = self._active_lease(task_id)
        if confirmed is None or confirmed.get("claim") != claim:
            # a straggler with an earlier-stamped claim overwrote the lease
            # after our list — it owns the task; back off cleanly
            self.objects.delete(claim)
            return None
        payload = self.payload(task_id)
        if payload is None:
            self.objects.delete(self._lease_key(task_id))
            self.objects.delete(claim)
            return None
        return Lease(
            task_id=task_id,
            claim=claim,
            worker=worker,
            attempt=attempt,
            expires_at=self._expiry(confirmed),
            payload=payload,
        )

    # -- the lease lifecycle -------------------------------------------------

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: extend the lease by one TTL from now.

        Raises :class:`LeaseLostError` when the task's active lease is no
        longer ``lease`` (it expired and was reclaimed, or the task was
        completed/buried by someone else).
        """
        current = self._active_lease(lease.task_id)
        if current is None or current.get("claim") != lease.claim:
            raise LeaseLostError(
                f"lease on task {lease.task_id} was lost "
                f"(held claim {lease.claim!r})"
            )
        expires_at = self.clock() + self.lease_ttl
        self._write(
            self._lease_key(lease.task_id),
            {**current, "expires_at": expires_at},
        )
        return replace(lease, expires_at=expires_at)

    def complete(self, lease: Lease) -> None:
        """Finish the lease's task: delete every queue object it has.

        Call it once the task's result object is published: that object is
        the record that the task is done, and the task reads ``ABSENT``
        from now on.  The task object goes first, so a racing claim finds
        no payload and backs off.  Safe if a racing worker already
        completed the task.
        """
        self.objects.delete(self._task_key(lease.task_id))
        self._clear_history(lease.task_id)

    def fail(self, lease: Lease, reason: str) -> TaskState:
        """Record a failed attempt; returns the task's resulting state.

        The task goes back to ``PENDING | FAILED`` while attempts remain in
        the retry budget, or to ``DEAD | FAILED`` (the dead-letter prefix)
        once the budget is exhausted.
        """
        self._write(
            self._failure_key(lease.task_id, lease.claim),
            {
                "task": lease.task_id,
                "worker": lease.worker,
                "claim": lease.claim,
                "attempt": lease.attempt,
                "reason": reason,
                "failed_at": self.clock(),
            },
        )
        self._release(lease)
        if self._failures(lease.task_id) >= self.retry_budget:
            self._bury(lease.task_id, reason=reason)
        return self.state(lease.task_id)

    def _release(self, lease: Lease) -> None:
        current = self._active_lease(lease.task_id)
        if current is not None and current.get("claim") == lease.claim:
            self.objects.delete(self._lease_key(lease.task_id))
        self.objects.delete(lease.claim)

    def _expire(self, task_id: str, lease: Mapping[str, Any]) -> None:
        """Reclaim an expired lease: record the failure, drop the lease."""
        claim = lease.get("claim")
        claim_name = claim if isinstance(claim, str) else f"unknown-{uuid.uuid4().hex}"
        self._write(
            self._failure_key(task_id, claim_name),
            {
                "task": task_id,
                "worker": lease.get("worker"),
                "claim": claim,
                "attempt": lease.get("attempt"),
                "reason": "lease expired (worker presumed dead)",
                "failed_at": self.clock(),
            },
        )
        self.objects.delete(self._lease_key(task_id))
        if isinstance(claim, str):
            self.objects.delete(claim)

    def _bury(self, task_id: str, reason: str) -> None:
        self._write(
            self._dead_key(task_id),
            {
                "task": task_id,
                "reason": reason,
                "failures": self._failures(task_id),
                "buried_at": self.clock(),
            },
        )
        self.objects.delete(self._lease_key(task_id))

    # -- maintenance ---------------------------------------------------------

    def reap(self) -> dict[str, int]:
        """Sweep the queue once: reclaim expired leases, bury exhausted tasks.

        Workers reclaim lazily as they scan for work; ``reap`` exists so a
        watcher (the dispatcher) can guarantee progress even when every
        worker is busy or gone.  Returns ``{"reclaimed": n, "buried": m}``.
        """
        reclaimed = 0
        buried = 0
        now = self.clock()
        for task_id in self.task_ids():
            if self.objects.exists(self._dead_key(task_id)):
                continue
            lease = self._active_lease(task_id)
            if lease is not None and self._expiry(lease) <= now:
                self._expire(task_id, lease)
                reclaimed += 1
            if self._failures(task_id) >= self.retry_budget:
                self._bury(task_id, reason="retry budget exhausted")
                buried += 1
        return {"reclaimed": reclaimed, "buried": buried}

    def dead_letters(self) -> dict[str, dict[str, Any]]:
        """``{task_id: dead-letter document}`` for every buried task."""
        letters: dict[str, dict[str, Any]] = {}
        for key in list(self.objects.list(self._dead_prefix())):
            name = key.rsplit("/", 1)[-1]
            if not name.endswith(".json"):
                continue
            document = self._read(key)
            if document is not None:
                letters[name[: -len(".json")]] = document
        return letters

    def describe(self) -> str:
        """One-line summary of the queue's location and parameters."""
        return (
            f"lease queue at {self.objects.describe()}/{QUEUE_PREFIX} "
            f"(ttl={self.lease_ttl:g}s, retries={self.retry_budget})"
        )

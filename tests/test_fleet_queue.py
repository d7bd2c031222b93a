"""Unit tests for the object-store lease queue (:mod:`repro.fleet.queue`).

Everything here runs against a real filesystem-rooted
:class:`~repro.core.objectstore.ObjectStore` but with an *injected clock*,
so lease expiry, reclamation and dead-lettering are exercised without any
sleeping.  ``claim_grace=0`` skips the race read-back delay — these tests
are single-process, so there is no straggler to detect.

Three disciplines of the queue are checked as it runs:

* it reads time only through the injected clock: in every test here,
  the module's ``time`` reads raise (:func:`no_real_clock`);
* every key it touches follows the bucket layout in the module docstring
  (:class:`TestBucketLayout`);
* the heartbeat thread's ``run`` loop assigns only attributes its
  ``__init__`` set (:class:`TestHeartbeatThreadState`).
"""

import re
import time

import pytest

from repro.common.errors import ReproError
from repro.core.objectstore import ObjectStore
from repro.fleet import queue as queue_module
from repro.fleet.queue import (
    Lease,
    LeaseLostError,
    LeaseQueue,
    TaskState,
)
from repro.fleet.worker import _Heartbeat


class _NoRealClock:
    """Stand-in for the queue module's ``time``: it sleeps, but never reads a clock."""

    sleep = staticmethod(time.sleep)

    def __getattr__(self, name):
        raise AssertionError(
            f"repro.fleet.queue read time.{name}; read the injected clock")


@pytest.fixture(autouse=True)
def no_real_clock(monkeypatch):
    monkeypatch.setattr(queue_module, "time", _NoRealClock())


class FakeClock:
    """A manually advanced wall clock."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    return LeaseQueue(
        ObjectStore(tmp_path), lease_ttl=30.0, retry_budget=3,
        clock=clock, claim_grace=0.0,
    )


def payload_for(task_id: str) -> dict:
    return {"kind": "test", "id": task_id}


class TestSubmit:
    def test_submit_then_state_is_pending(self, queue):
        assert queue.submit("t1", payload_for("t1")) is True
        assert queue.state("t1") == TaskState.PENDING
        assert queue.payload("t1") == payload_for("t1")

    def test_submit_is_idempotent(self, queue):
        assert queue.submit("t1", payload_for("t1")) is True
        assert queue.submit("t1", payload_for("t1")) is False
        assert list(queue.task_ids()) == ["t1"]

    def test_a_finished_task_is_enqueued_anew(self, queue):
        # a finished task leaves no queue object: its result object is the
        # record, so the queue treats a resubmission as new work
        queue.submit("t1", payload_for("t1"))
        queue.complete(queue.claim("w1"))
        assert queue.state("t1") == TaskState.ABSENT
        assert queue.submit("t1", payload_for("t1")) is True
        assert queue.state("t1") == TaskState.PENDING
        assert queue.claim("w1").attempt == 0

    def test_invalid_task_ids_rejected(self, queue):
        with pytest.raises(ReproError, match="invalid task id"):
            queue.submit("", payload_for(""))
        with pytest.raises(ReproError, match="invalid task id"):
            queue.submit("a/b", payload_for("a/b"))

    def test_unknown_task_is_absent(self, queue):
        assert queue.state("nope") == TaskState.ABSENT
        assert queue.payload("nope") is None


class TestClaim:
    def test_claim_returns_a_lease(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        lease = queue.claim("w1")
        assert isinstance(lease, Lease)
        assert lease.task_id == "t1"
        assert lease.worker == "w1"
        assert lease.attempt == 0
        assert lease.expires_at == clock.now + 30.0
        assert lease.payload == payload_for("t1")
        assert queue.state("t1") == TaskState.CLAIMED

    def test_claim_empty_queue_returns_none(self, queue):
        assert queue.claim("w1") is None

    def test_live_lease_blocks_other_workers(self, queue):
        queue.submit("t1", payload_for("t1"))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None  # single winner

    def test_claims_scan_tasks_in_sorted_order(self, queue):
        queue.submit("b", payload_for("b"))
        queue.submit("a", payload_for("a"))
        assert queue.claim("w1").task_id == "a"
        assert queue.claim("w1").task_id == "b"

    def test_finished_tasks_are_not_claimable(self, queue):
        queue.submit("t1", payload_for("t1"))
        queue.complete(queue.claim("w1"))
        assert queue.claim("w2") is None


class TestLeaseLifecycle:
    def test_renew_extends_expiry(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        lease = queue.claim("w1")
        clock.advance(20.0)
        renewed = queue.renew(lease)
        assert renewed.expires_at == clock.now + 30.0
        clock.advance(20.0)  # past the original expiry, inside the renewal
        assert queue.state("t1") == TaskState.CLAIMED

    def test_renew_after_reclaim_raises_lease_lost(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        lease = queue.claim("w1")
        clock.advance(31.0)
        queue.reap()  # the lease expired and was reclaimed
        with pytest.raises(LeaseLostError):
            queue.renew(lease)

    def test_complete_deletes_every_queue_object_of_the_task(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        queue.submit("t2", payload_for("t2"))
        queue.fail(queue.claim("w1"), "boom")  # a failure record and a claim
        lease = queue.claim("w1")
        assert lease.task_id == "t1" and lease.attempt == 1
        queue.complete(lease)
        assert queue.state("t1") == TaskState.ABSENT
        assert list(queue.task_ids()) == ["t2"]
        assert [key for key in queue.objects.list("queue")
                if "/t1" in key] == []

    def test_fail_returns_task_to_pending_with_failure_bit(self, queue):
        queue.submit("t1", payload_for("t1"))
        state = queue.fail(queue.claim("w1"), "boom")
        assert state == TaskState.PENDING | TaskState.FAILED
        # and the task is claimable again (next attempt)
        assert queue.claim("w2").attempt == 1


class TestExpiryAndReclamation:
    def test_expired_lease_is_reclaimed_on_the_next_claim(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        queue.claim("w1")
        clock.advance(31.0)  # w1 presumed dead
        lease = queue.claim("w2")
        assert lease is not None
        assert lease.worker == "w2"
        assert lease.attempt == 1  # the expiry consumed attempt 0
        assert queue.state("t1") & TaskState.FAILED

    def test_reap_reclaims_without_any_worker(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        queue.claim("w1")
        clock.advance(31.0)
        swept = queue.reap()
        assert swept["reclaimed"] == 1
        assert queue.state("t1") == TaskState.PENDING | TaskState.FAILED

    def test_reaping_the_same_expiry_twice_charges_one_attempt(
        self, tmp_path, clock
    ):
        # two racing reapers write the SAME failure record (keyed by the
        # dead lease's claim name): the retry budget is never double-charged
        objects = ObjectStore(tmp_path)
        one = LeaseQueue(objects, clock=clock, claim_grace=0.0)
        two = LeaseQueue(objects, clock=clock, claim_grace=0.0)
        one.submit("t1", payload_for("t1"))
        one.claim("w1")
        clock.advance(31.0)
        lease_doc = one._active_lease("t1")
        one._expire("t1", lease_doc)
        two._expire("t1", lease_doc)
        assert one._failures("t1") == 1

    def test_live_lease_survives_reap(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        queue.claim("w1")
        clock.advance(10.0)  # well inside the TTL
        assert queue.reap() == {"reclaimed": 0, "buried": 0}
        assert queue.state("t1") == TaskState.CLAIMED


class TestDeadLetters:
    def drain_budget(self, queue, task_id: str) -> None:
        for _ in range(queue.retry_budget):
            lease = queue._try_claim(task_id, "w1")
            assert lease is not None
            queue.fail(lease, "poisoned")

    def test_task_is_buried_after_the_retry_budget(self, queue):
        queue.submit("t1", payload_for("t1"))
        self.drain_budget(queue, "t1")
        assert queue.state("t1") == TaskState.DEAD | TaskState.FAILED
        assert queue.claim("w1") is None
        letters = queue.dead_letters()
        assert letters["t1"]["reason"] == "poisoned"

    def test_resubmitting_a_dead_task_revives_it(self, queue):
        queue.submit("t1", payload_for("t1"))
        self.drain_budget(queue, "t1")
        assert queue.submit("t1", payload_for("t1")) is True
        assert queue.state("t1") == TaskState.PENDING  # history cleared
        lease = queue.claim("w1")
        assert lease.attempt == 0  # fresh budget
        queue.complete(lease)
        assert queue.state("t1") == TaskState.ABSENT
        assert list(queue.objects.list("queue")) == []

    def test_counts_tallies_every_state(self, queue):
        queue.submit("pending", payload_for("pending"))
        queue.submit("claimed", payload_for("claimed"))
        queue.submit("done", payload_for("done"))
        queue.submit("dead", payload_for("dead"))
        self.drain_budget(queue, "dead")
        assert queue.claim("w1").task_id == "claimed"
        done_lease = queue.claim("w1")
        assert done_lease.task_id == "done"
        queue.complete(done_lease)  # a finished task is not queued
        assert queue.counts() == {
            "pending": 1, "claimed": 1, "dead": 1, "failed": 1}


class TestClaimRace:
    def test_losing_entrant_backs_off_after_listing(self, queue, clock):
        # a contender whose claim is not lexicographically first among the
        # listed entrants must withdraw its claim and walk away lease-less
        queue.submit("t1", payload_for("t1"))
        # pre-plant a rival claim stamped strictly earlier than any real
        # one (claim names are timestamp-ordered, so 0 always sorts first)
        rival = f"queue/claims/t1/0000/{0:020d}-rival.json"
        queue._write(rival, {"worker": "rival", "claimed_at": clock.now})
        assert queue._try_claim("t1", "late") is None
        # the loser's own claim was withdrawn; only the rival's remains
        assert list(queue.objects.list("queue/claims/t1")) == [rival]
        assert queue._active_lease("t1") is None

    def test_readback_detects_a_straggler_lease_overwrite(self, queue, clock):
        # The narrow two-winner window: a straggler with an earlier-stamped
        # claim listed *before* our claim landed, concluded it won, and
        # overwrote the lease after our own lease write.  The confirming
        # read-back must see the foreign claim name and back off.
        queue.submit("t1", payload_for("t1"))
        straggler_lease = {
            "task": "t1",
            "claim": f"queue/claims/t1/0000/{0:020d}-straggler.json",
            "worker": "straggler",
            "attempt": 0,
            "expires_at": clock.now + queue.lease_ttl,
        }
        original_write = queue._write

        def write_then_get_overwritten(key, document):
            original_write(key, document)
            if key == queue._lease_key("t1") and document["worker"] == "fast":
                original_write(key, straggler_lease)

        queue._write = write_then_get_overwritten
        try:
            lease = queue._try_claim("t1", "fast")
        finally:
            queue._write = original_write
        assert lease is None  # backed off
        current = queue._active_lease("t1")
        assert current is not None and current["worker"] == "straggler"
        # the loser withdrew its claim object too
        entrants = list(queue.objects.list("queue/claims/t1"))
        assert all("straggler" in entry or "fast" not in entry
                   for entry in entrants)

    def test_describe_names_the_bucket(self, queue):
        assert "lease queue at" in queue.describe()
        assert "ttl=30" in queue.describe()


class TestClaimStamps:
    """Claim names must derive from the injected clock, not the wall clock.

    :func:`no_real_clock` makes any real clock read fail; these tests pin
    that the timestamp ordering claim entrants race on is simulated time.
    """

    @staticmethod
    def stamp_ns_of(queue, task_id: str) -> int:
        (entrant,) = queue.objects.list(queue._claims_root(task_id))
        return int(entrant.rsplit("/", 1)[-1].split("-", 1)[0])

    def test_claim_name_embeds_the_injected_clock_stamp(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        clock.advance(12.5)
        assert queue.claim("w1") is not None
        expected = int(clock.now * 1_000_000_000)
        assert self.stamp_ns_of(queue, "t1") == expected

    def test_claim_stamps_track_simulated_time(self, queue, clock):
        queue.submit("t1", payload_for("t1"))
        queue.submit("t2", payload_for("t2"))
        first = queue.claim("w1")
        clock.advance(7.0)
        second = queue.claim("w2")
        assert first is not None and second is not None
        delta = self.stamp_ns_of(queue, second.task_id) - self.stamp_ns_of(
            queue, first.task_id
        )
        assert delta == int(7.0 * 1_000_000_000)


class RecordingStore(ObjectStore):
    """An :class:`ObjectStore` that records every key and prefix it is given."""

    def __init__(self, root):
        super().__init__(root)
        self.keys = set()
        self.prefixes = set()

    def put(self, key, data):
        self.keys.add(key)
        super().put(key, data)

    def get(self, key):
        self.keys.add(key)
        return super().get(key)

    def exists(self, key):
        self.keys.add(key)
        return super().exists(key)

    def delete(self, key):
        self.keys.add(key)
        return super().delete(key)

    def list(self, prefix=""):
        self.prefixes.add(prefix)
        return super().list(prefix)


def documented_layout():
    """The module docstring's key patterns."""
    paths = re.findall(r"^ +(queue/\S+)", queue_module.__doc__, re.MULTILINE)
    assert len(paths) == 5, paths
    return [
        re.compile("[^/]+".join(re.escape(part) for part in re.split(r"<\w+>", path))
                   + "$")
        for path in paths
    ]


class TestBucketLayout:
    def test_every_key_follows_the_documented_layout(self, tmp_path, clock):
        objects = RecordingStore(tmp_path)
        queue = LeaseQueue(objects, lease_ttl=30.0, retry_budget=2, clock=clock,
                           claim_grace=0.0)
        for task_id in ("done", "failed", "expired", "dead"):
            queue.submit(task_id, payload_for(task_id))
        queue.complete(queue.renew(queue._try_claim("done", "w1")))
        queue.fail(queue._try_claim("failed", "w1"), "boom")
        queue._try_claim("expired", "w1")  # and its worker dies
        clock.advance(31.0)
        queue.reap()
        for _ in range(2):
            queue.fail(queue._try_claim("dead", "w1"), "poisoned")
        assert queue.counts() == {
            "pending": 2, "claimed": 0, "dead": 1, "failed": 3}
        assert queue.dead_letters().keys() == {"dead"}
        assert queue.submit("dead", payload_for("dead"))  # revive: clear its history
        # the finished task left nothing behind
        assert [key for key in ObjectStore(tmp_path).list("queue")
                if "/done" in key] == []

        layout = documented_layout()
        stray = sorted(key for key in objects.keys
                       if not any(pattern.match(key) for pattern in layout))
        assert stray == []
        unused = [pattern.pattern for pattern in layout
                  if not any(pattern.match(key) for key in objects.keys)]
        assert unused == []
        assert all(prefix.startswith("queue/") for prefix in objects.prefixes)


class TestHeartbeatThreadState:
    def test_run_assigns_only_attributes_init_set(self, tmp_path, clock):
        # a short TTL makes the heartbeat beat every 0.05 s
        queue = LeaseQueue(ObjectStore(tmp_path), lease_ttl=0.15, clock=clock,
                           claim_grace=0.0)
        queue.submit("t1", payload_for("t1"))
        heartbeat = _Heartbeat(queue, queue.claim("w1"))
        declared = set(vars(heartbeat))
        renew = queue.renew
        renewals = []

        def renew_twice_then_lose(lease):
            renewals.append(lease)
            if len(renewals) == 3:
                queue.objects.delete(queue._lease_key("t1"))
            return renew(lease)

        queue.renew = renew_twice_then_lose
        # run() in this thread, not start(): only run's own assignments
        # land on the object, none of threading's bookkeeping
        heartbeat.run()
        assert len(renewals) == 3 and heartbeat.lost
        assert set(vars(heartbeat)) - declared == set()

"""`repro.fleet` — distributed execution over a shared object-store bucket.

The fleet turns the cache directory's object store into a *coordination
medium*: any number of worker processes, on any number of hosts that can
see the same bucket, drain a lease-based work queue kept entirely under
the bucket's ``queue/`` prefix.  There is no broker, no server, no
sockets — the four primitive object operations (put / get / list /
delete) are the entire wire protocol.

Layering:

* :mod:`repro.fleet.queue` — :class:`LeaseQueue`, the coordination core:
  atomic claims, heartbeat leases, crash reclamation, bounded retries and
  a dead-letter prefix.  It holds unfinished tasks only: completing a
  task deletes its queue objects;
* :mod:`repro.fleet.worker` — :class:`Worker`, the claim → simulate →
  publish loop behind ``python -m repro.cli worker``.  A task payload is
  the point's :meth:`~repro.core.runner.ExperimentPoint.to_dict` block
  plus a version and a kind, and its id is the point's fingerprint;
* :mod:`repro.fleet.dispatcher` — :class:`FleetDispatcher`, the
  engine-side producer/supervisor that
  :class:`~repro.core.runner.ExperimentEngine` delegates to when
  ``Settings(fleet=N)`` / ``REPRO_FLEET=N`` is set.  The engine then reads
  the published results through its own result store.

The design invariant that makes all of this safe: **results are published
idempotently under content fingerprints, and execution is bit-identical
across workers and hosts** — so leases only need to be an
efficiency mechanism (avoiding duplicate work), never a correctness one,
and a task's result object is the only record that it is finished.
"""

from __future__ import annotations

from repro.fleet.dispatcher import FleetBatch, FleetDispatcher, FleetStatus
from repro.fleet.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_RETRY_BUDGET,
    Lease,
    LeaseLostError,
    LeaseQueue,
    TaskState,
)
from repro.fleet.worker import Worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_RETRY_BUDGET",
    "FleetBatch",
    "FleetDispatcher",
    "FleetStatus",
    "Lease",
    "LeaseLostError",
    "LeaseQueue",
    "TaskState",
    "Worker",
]

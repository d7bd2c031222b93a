"""`repro.fleet` — distributed execution over a shared object-store bucket.

The fleet turns the object store that PR 4 introduced for caching into a
*coordination medium*: any number of worker processes, on any number of
hosts that can see the same bucket, drain a lease-based work queue kept
entirely under the bucket's ``queue/`` prefix.  There is no broker, no
server, no sockets — the four primitive object operations (put / get /
list / delete) are the entire wire protocol.

Layering:

* :mod:`repro.fleet.queue` — :class:`LeaseQueue`, the coordination core:
  atomic claims, heartbeat leases, crash reclamation, bounded retries and
  a dead-letter prefix;
* :mod:`repro.fleet.tasks` — :class:`FleetTask`, the JSON codec between
  experiment points and queue payloads (task id = result fingerprint);
* :mod:`repro.fleet.worker` — :class:`Worker`, the claim → simulate →
  publish loop behind ``python -m repro.cli worker``;
* :mod:`repro.fleet.dispatcher` — :class:`FleetDispatcher`, the
  engine-side producer/supervisor that
  :class:`~repro.core.runner.ExperimentEngine` delegates to when
  ``Settings(fleet=N)`` / ``REPRO_FLEET=N`` is set.

The design invariant that makes all of this safe: **results are published
idempotently under content fingerprints, and execution is bit-identical
across workers and hosts** — so leases only need to be an
efficiency mechanism (avoiding duplicate work), never a correctness one.
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
from repro.fleet.tasks import FleetTask
from repro.fleet.worker import Worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_RETRY_BUDGET",
    "FleetBatch",
    "FleetDispatcher",
    "FleetStatus",
    "FleetTask",
    "Lease",
    "LeaseLostError",
    "LeaseQueue",
    "TaskState",
    "Worker",
]

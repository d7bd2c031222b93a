"""Run handles: one shape for submitted work, however it executes.

:meth:`Session.submit() <repro.api.session.Session.submit>` returns a
:class:`RunHandle` whatever the execution mode — in-process, local
process pool, or fleet.  The handle exposes the same three calls
everywhere:

* :meth:`RunHandle.status` — a :class:`RunStatus` snapshot (never blocks);
* :meth:`RunHandle.watch` — block until the run finishes (``timeout=``
  caps the wait for fleet runs);
* :meth:`RunHandle.result` — the finished
  :class:`~repro.api.request.RunResult` (waits if needed).

``Session.run(request)`` is ``submit(request).result()``, and every
handle runs on its session's engine, with the session's ``jobs`` and
``fleet``.

The modes differ only in *when* work happens, never in what comes back:

* **in-process / pooled** (``fleet == 0``): execution is *lazy and
  synchronous* — nothing runs at submit time; the first ``watch()`` or
  ``result()`` call computes the grid on the calling thread (``timeout``
  cannot interrupt it and is therefore ignored, as documented).  ``status()``
  before that reports cache occupancy: points already in the store count
  as completed.
* **fleet** (``fleet > 0``): submission *eagerly* enqueues every
  cache-missing point on the shared object-store queue — workers may
  start pulling before ``watch()`` is ever called, and ``status()``
  reflects live queue progress.  ``watch()`` supervises the queue
  (reaping crashed workers' leases, respawning local workers) and
  ``result()`` assembles the grid from the published results.

Either way the :class:`~repro.api.request.RunResult` — and every byte of
every exhibit derived from it — is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.request import RunRequest, RunResult
from repro.common.errors import ReproError
from repro.core.runner import ExperimentEngine, ExperimentPoint, ExperimentSpec

if TYPE_CHECKING:
    from repro.fleet.dispatcher import FleetBatch


@dataclass(frozen=True)
class RunStatus:
    """A point-in-time snapshot of one submitted run.

    ``state`` is one of ``"pending"`` (submitted, not finished, nothing
    known to be executing), ``"running"`` (fleet workers hold leases on
    the run's tasks), ``"done"`` and ``"failed"``.  ``completed`` counts
    resolved points (cached or computed) out of ``total``; ``failed``
    counts points with at least one recorded failure (fleet only —
    in-process failures raise instead).
    """

    state: str
    total: int
    completed: int
    failed: int = 0

    @property
    def done(self) -> bool:
        return self.state == "done"

    def describe(self) -> str:
        """Short human-readable progress line."""
        line = f"{self.state}: {self.completed}/{self.total} points"
        if self.failed:
            line += f" ({self.failed} with failures)"
        return line


class RunHandle:
    """One submitted grid run; see the module docstring for mode semantics."""

    def __init__(
        self,
        request: RunRequest,
        engine: ExperimentEngine,
        spec: ExperimentSpec,
    ) -> None:
        self.request = request
        self._engine = engine
        self._spec = spec
        #: unique points of the grid, in first-appearance order
        self._points: tuple[ExperimentPoint, ...] = tuple(
            dict.fromkeys(spec.points))
        self._result: RunResult | None = None
        self._error: BaseException | None = None
        self._batch: "FleetBatch | None" = None

    # -- fleet eager enqueue (called by Session.submit) ----------------------

    def _enqueue(self) -> None:
        """Eagerly enqueue the grid's cache misses on the fleet queue."""
        missing = [
            point for point in self._points
            if not self._engine.store.contains(point)
        ]
        if missing:
            self._batch = self._engine.submit_fleet(missing)

    # -- inspection ----------------------------------------------------------

    def done(self) -> bool:
        """True once :meth:`result` would return without computing."""
        return self._result is not None

    def status(self) -> RunStatus:
        """A progress snapshot; never blocks and never computes."""
        total = len(self._points)
        if self._error is not None:
            return RunStatus(state="failed", total=total, completed=0)
        if self._result is not None:
            return RunStatus(state="done", total=total, completed=total)
        if self._batch is not None:
            fleet = self._engine.fleet_dispatcher().status(self._batch)
            cached = total - len(self._batch)
            return RunStatus(
                state="running" if fleet.claimed else "pending",
                total=total,
                completed=cached + fleet.done,
                failed=fleet.failed + fleet.dead,
            )
        cached = sum(
            1 for point in self._points if self._engine.store.contains(point)
        )
        return RunStatus(state="pending", total=total, completed=cached)

    # -- completion ----------------------------------------------------------

    def watch(
        self, timeout: float | None = None, poll: float | None = None
    ) -> RunStatus:
        """Block until the run finishes; returns the final status.

        For a fleet run, ``timeout`` caps the wait (raising
        :class:`~repro.common.errors.ReproError` when it elapses, leaving
        the queue intact for a later ``watch()``) and ``poll`` overrides
        the supervision interval.  In-process execution is synchronous on
        this thread, so ``timeout`` cannot apply — the run simply computes.
        """
        if self._result is not None:
            return self.status()
        if self._error is not None:
            raise self._error
        if self._batch is not None:
            # supervise the queue first so a timeout surfaces *before*
            # run_spec would block indefinitely on unfinished tasks
            self._engine.fleet_dispatcher().watch(
                self._batch, timeout=timeout, poll_s=poll)
        self._compute()
        return self.status()

    def result(self) -> RunResult:
        """The finished grid (waiting / computing if necessary)."""
        self.watch()
        assert self._result is not None
        return self._result

    def _compute(self) -> None:
        """Resolve the grid through the engine and freeze the RunResult."""
        try:
            resolved = self._engine.run_spec(self._spec)
        except BaseException as exc:
            self._error = exc
            raise
        self._result = RunResult(
            request=self.request,
            results={
                (point.workload, point.config): result
                for point, result in resolved.items()
            },
        )

    def __repr__(self) -> str:
        status = self.status()
        return (
            f"RunHandle({self._spec.name!r}, {status.describe()})"
        )


__all__ = ["RunHandle", "RunStatus"]

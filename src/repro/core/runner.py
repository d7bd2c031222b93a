"""Experiment engine: sweep grids, batched parallel execution, result store.

The paper's evaluation is a large grid of (workload, scale, machine
configuration) simulation points — Figures 5, 8, 9 and 11-13 alone revisit
hundreds of them.  This module turns that grid into a first-class object:

* :class:`ExperimentPoint` — one picklable simulation point;
* :class:`ExperimentSpec` — a named collection of points (the grid behind
  one table or figure);
* :class:`ResultStore` — a two-level result cache: an in-memory map plus,
  with a cache directory, the S3-style object store
  (:mod:`repro.core.objectstore`), keyed by a configuration fingerprint;
* :class:`ExperimentEngine` — executes the missing points of a spec, batched
  across the engine's one :class:`concurrent.futures.ProcessPoolExecutor`
  when ``jobs > 1``.  The pool's ``spawn`` workers are started at the first
  batch with cache misses, serve every later spec and are released by
  :meth:`ExperimentEngine.close`; they rebuild the simulators from the
  picklable points and ship results back as JSON-compatible dictionaries.
  With a cache directory configured the engine also memoises compiled
  traces in the same bucket (:class:`repro.trace.store.TraceStore`) and
  pre-warms them before fanning out, so each workload trace is compiled at
  most once per grid and each worker loads it at most once.

Every ``table*``/``figure*`` function in :mod:`repro.core.experiments`
declares its grid and resolves it through the engine it is passed; single
points resolve through ``engine.result(workload, config, scale)``.  There
is no process-wide default engine: a :class:`repro.api.Session` owns one,
and the ``python -m repro.cli run-all`` entry point runs through a
session.

The store only ever hands out *copies* of cached results: callers are free
to mutate what they receive without corrupting later experiments.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.errors import ReproError
from repro.common.params import params_to_dict
from repro.core.config import MachineConfig
from repro.core.objectstore import STORE_VERSION, ObjectStore, ObjectStoreBackend
from repro.core.results import SimulationResult
from repro.core.simulator import simulate_point
from repro.trace.store import TraceStore

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.fleet.dispatcher import FleetBatch, FleetDispatcher


@dataclass(frozen=True)
class ExperimentPoint:
    """One simulation point of a sweep grid.

    Points are frozen, hashable and picklable: the parallel executor sends
    them to worker processes, which rebuild the workload trace and the
    simulator from scratch.
    """

    workload: str
    scale: str
    config: MachineConfig

    def fingerprint(self) -> str:
        """Stable hex digest identifying this point's full configuration."""
        payload = {
            "workload": self.workload,
            "scale": self.scale,
            "config_name": self.config.name,
            "params": params_to_dict(self.config.params),
            "version": STORE_VERSION,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __str__(self) -> str:
        return f"{self.workload}/{self.scale}/{self.config.name}"


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep grid: the set of points behind one table or figure."""

    name: str
    points: tuple[ExperimentPoint, ...]

    @classmethod
    def grid(
        cls,
        name: str,
        workloads: Iterable[str],
        configs: Iterable[MachineConfig],
        scale: str = "small",
    ) -> "ExperimentSpec":
        """Build the full cross product of ``workloads`` × ``configs``."""
        configs = tuple(configs)
        points = tuple(
            ExperimentPoint(workload, scale, config)
            for workload in workloads
            for config in configs
        )
        return cls(name=name, points=points)

    def __len__(self) -> int:
        return len(self.points)


def _simulate_point(point: ExperimentPoint, bucket_root: str | None = None) -> dict:
    """Execute one point and return the serialised result.

    Top-level function so :class:`ProcessPoolExecutor` can pickle it.
    With a ``bucket_root`` the workload trace is loaded from that bucket's
    :class:`TraceStore` instead of being recompiled.
    """
    trace_store = (
        TraceStore(ObjectStore(bucket_root)) if bucket_root is not None else None
    )
    return simulate_point(
        point.workload, point.scale, point.config, trace_store=trace_store,
    ).to_dict()


class ResultStore:
    """Two-level simulation-result cache: in-memory dict plus the object store.

    Entries are keyed by :meth:`ExperimentPoint.fingerprint`.  With a
    ``cache_dir`` every stored result is also written through to an
    :class:`~repro.core.objectstore.ObjectStoreBackend` under
    ``<cache_dir>/objects/`` and picked up again by later processes —
    fleet workers publish into the same objects; without one the store is
    purely in-memory.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = (
            ObjectStoreBackend(self.cache_dir) if self.cache_dir is not None else None
        )
        self._memory: dict[str, SimulationResult] = {}
        self.memory_hits = 0
        self.disk_hits = 0

    # -- lookup -------------------------------------------------------------

    def get(self, point: ExperimentPoint) -> SimulationResult | None:
        """Return a defensive copy of the cached result, or ``None``."""
        key = point.fingerprint()
        cached = self._memory.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached.copy()
        if self.backend is not None:
            result = self.backend.get(key)
            if result is not None:
                self._memory[key] = result
                self.disk_hits += 1
                return result.copy()
        return None

    def contains(self, point: ExperimentPoint) -> bool:
        key = point.fingerprint()
        if key in self._memory:
            return True
        return self.backend is not None and self.backend.contains(key)

    # -- insertion ----------------------------------------------------------

    def put(self, point: ExperimentPoint, result: SimulationResult) -> None:
        """Store ``result`` for ``point`` (memory, and disk when configured)."""
        self._memory[point.fingerprint()] = result
        if self.backend is not None:
            self.backend.put(point, result)

    # -- maintenance --------------------------------------------------------

    def gc(self) -> tuple[int, int]:
        """Evict stale/corrupt disk entries; returns ``(kept, evicted)``."""
        if self.backend is None:
            return (0, 0)
        return self.backend.gc()

    def flush(self) -> None:
        """No-op: every :meth:`put` is written through to disk at once.

        Kept so callers that flush at the end of a run keep working.
        """

    def describe(self) -> str:
        """Short description of the persistence layer (for summaries)."""
        return self.backend.describe() if self.backend is not None else "memory"


class ExperimentEngine:
    """Executes sweep grids against a result store.

    With ``jobs > 1`` the engine owns one process pool of that width.
    It is created on the first batch that has cache misses, reused for
    every later spec, and shut down by :meth:`close` — an engine that ran
    a parallel batch must be closed.  Pool workers start from a fresh
    import, so a third-party machine model reaches them only if importing
    its parameter type's module registers it.

    With ``fleet > 0`` the engine stops executing points itself and
    delegates every cache miss to a :class:`~repro.fleet.dispatcher.
    FleetDispatcher` — submit the batch to the shared object-store queue,
    watch it drain (spawning ``fleet`` local workers), collect the
    published results.  Exhibits are byte-identical either way.

    The engine reads no environment variable:
    :class:`repro.api.Settings` resolves ``jobs`` and ``fleet`` and a
    :class:`repro.api.Session` passes them here.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        fleet: int = 0,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if fleet < 0:
            raise ValueError("fleet must be non-negative")
        self.store = store if store is not None else ResultStore()
        #: process-pool width across points
        self.jobs = jobs
        #: local fleet workers to spawn (0: fleet delegation disabled)
        self.fleet = fleet
        self._dispatcher: "FleetDispatcher | None" = None
        #: the ``jobs``-wide worker pool, created by the first parallel batch
        self._pool: "ProcessPoolExecutor | None" = None
        #: compiled traces, kept in the result store's bucket
        self.trace_store = (
            TraceStore(self.store.backend.objects)
            if self.store.backend is not None else None
        )
        #: (workload, scale) pairs already ensured on disk — without this
        #: memo every exhibit batch would re-validate (fully unpickle) each
        #: trace in the parent, the very cost the store exists to avoid
        self._ensured: set[tuple[str, str]] = set()
        #: points actually simulated (cache misses) over this engine's life
        self.simulated = 0
        #: points handed to the fleet; not a subset of ``simulated``, since
        #: a submitted handle's points come back as disk hits
        self.fleet_points = 0

    # -- execution ----------------------------------------------------------

    def run_spec(self, spec: ExperimentSpec) -> dict[ExperimentPoint, SimulationResult]:
        """Resolve every point of ``spec``, simulating only the missing ones.

        Missing points are executed in one batch — across the engine's
        process pool when it was configured with ``jobs > 1`` — and the
        full mapping of point to (defensively copied) result is returned.
        """
        results: dict[ExperimentPoint, SimulationResult] = {}
        missing: list[ExperimentPoint] = []
        seen: set[ExperimentPoint] = set()
        for point in spec.points:
            if point in seen:
                continue
            seen.add(point)
            cached = self.store.get(point)
            if cached is None:
                missing.append(point)
            else:
                results[point] = cached
        for point, result in zip(missing, self._execute(missing), strict=True):
            self.store.put(point, result)
            results[point] = result.copy()
        self.simulated += len(missing)
        return results

    def run_point(self, point: ExperimentPoint) -> SimulationResult:
        """Resolve a single point through the store."""
        return self.run_spec(ExperimentSpec(name="adhoc", points=(point,)))[point]

    def result(self, workload: str, config: MachineConfig, scale: str = "small") -> SimulationResult:
        """Convenience lookup by (workload name, configuration, scale)."""
        return self.run_point(ExperimentPoint(workload, scale, config))

    # -- internals ----------------------------------------------------------

    def _prewarm_traces(self, points: Sequence[ExperimentPoint]) -> None:
        """Compile (at most once) and persist every trace the batch needs.

        Running this in the parent before fanning out guarantees worker
        processes only deserialise traces — a cold parallel sweep compiles
        each (workload, scale) exactly once instead of once per worker.
        """
        if self.trace_store is None:
            return
        for key in dict.fromkeys((p.workload, p.scale) for p in points):
            if key not in self._ensured:
                self.trace_store.ensure(*key)
                self._ensured.add(key)

    def _execute(self, points: Sequence[ExperimentPoint]) -> list[SimulationResult]:
        if not points:
            return []
        if self.fleet:
            return self._execute_fleet(points)
        self._prewarm_traces(points)
        if self.jobs > 1 and len(points) > 1:
            from concurrent.futures.process import BrokenProcessPool

            try:
                return self._execute_parallel(points)
            except (OSError, BrokenProcessPool):
                # Process pools can be unavailable (restricted sandboxes) or
                # lose their workers mid-run; drop the pool (the next batch
                # builds a fresh one) and run this batch in-process rather
                # than failing the whole sweep.
                self._shutdown_pool()
        return [
            SimulationResult.from_dict(_simulate_point(p, self._bucket_root()))
            for p in points
        ]

    def fleet_dispatcher(self) -> "FleetDispatcher":
        """The engine's fleet dispatcher, created on first use.

        Fleet delegation coordinates through the object-store bucket under
        the result store's cache directory, so a cache dir is mandatory —
        a memory-only engine has no bucket for workers to share.
        """
        if self._dispatcher is None:
            if self.store.cache_dir is None:
                raise ReproError(
                    "fleet execution requires a cache directory "
                    "(--cache-dir / REPRO_CACHE_DIR): workers coordinate "
                    "through the object store under it"
                )
            from repro.fleet.dispatcher import FleetDispatcher

            self._dispatcher = FleetDispatcher(self.store.cache_dir, spawn=self.fleet)
        return self._dispatcher

    def submit_fleet(self, points: Sequence[ExperimentPoint]) -> "FleetBatch":
        """Enqueue ``points`` on the fleet, their traces compiled first.

        The traces are pre-warmed here, in the parent, so fleet workers
        only load them.  Both fleet paths submit through this method: a
        batch of :meth:`run_spec` and a :class:`~repro.api.RunHandle`'s
        eager submission.
        """
        self._prewarm_traces(points)
        batch = self.fleet_dispatcher().submit(points)
        self.fleet_points += len(points)
        return batch

    def _execute_fleet(self, points: Sequence[ExperimentPoint]) -> list[SimulationResult]:
        """Delegate the batch to the fleet: submit, watch, collect.

        The engine reduces to a producer here — every point is enqueued on
        the shared :class:`~repro.fleet.queue.LeaseQueue`, workers (the
        ``fleet`` spawned locally, plus any others sharing the bucket)
        simulate and publish, and the dispatcher hands back the published
        results in batch order.  Results re-enter :meth:`run_spec` exactly
        as locally computed ones would.
        """
        batch = self.submit_fleet(points)
        dispatcher = self.fleet_dispatcher()
        dispatcher.watch(batch)
        return dispatcher.collect(batch)

    def _execute_parallel(self, points: Sequence[ExperimentPoint]) -> list[SimulationResult]:
        """Run ``points`` on the engine's pool; results come back in order."""
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        payloads = self._pool.map(
            _simulate_point, points, itertools.repeat(self._bucket_root()))
        return [SimulationResult.from_dict(payload) for payload in payloads]

    def _bucket_root(self) -> str | None:
        """The bucket root a worker loads traces from (None: compile)."""
        return str(self.trace_store.objects.root) if self.trace_store is not None else None

    # -- lifecycle ----------------------------------------------------------

    def _shutdown_pool(self) -> None:
        """Shut the worker pool down, waiting for its workers to exit."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)

    def shutdown_fleet(self) -> None:
        """Drain spawned fleet workers (no-op when none were started)."""
        if self._dispatcher is not None:
            self._dispatcher.shutdown()
            self._dispatcher = None

    def close(self) -> None:
        """Release engine resources: the worker pool and fleet workers.

        The engine stays usable; a later parallel batch starts a new pool.
        """
        self._shutdown_pool()
        self.shutdown_fleet()

    # -- statistics ---------------------------------------------------------

    @property
    def memory_hits(self) -> int:
        return self.store.memory_hits

    @property
    def disk_hits(self) -> int:
        return self.store.disk_hits

    def summary(self) -> str:
        """One-line cache/execution summary (printed by the CLI)."""
        line = (
            f"engine: {self.simulated} simulated, {self.disk_hits} disk hits, "
            f"{self.memory_hits} memory hits, jobs={self.jobs}, "
            f"store={self.store.describe()}"
        )
        if self.fleet:
            line += f", fleet={self.fleet} ({self.fleet_points} dispatched)"
        if self.trace_store is not None:
            line += f", {self.trace_store.summary()}"
        return line

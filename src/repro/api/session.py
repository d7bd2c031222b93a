"""The :class:`Session`: one owner for stores, engine and exhibit runs.

A session is the programmatic equivalent of one ``python -m repro.cli``
invocation, minus the printing: it resolves a :class:`~repro.api.Settings`
object (or accepts one), builds the result store and
:class:`~repro.core.runner.ExperimentEngine` exactly as the CLI wires
them, plus the trace store that :meth:`Session.gc` collects, and exposes
every capability of the evaluation as typed calls —

    from repro.api import RunRequest, Session

    with Session(cache_dir=".repro-cache", jobs=4) as session:
        figure5 = session.exhibits(names=("figure5",))
        grid = session.run(RunRequest(workloads=("trfd",),
                                      configs=("reference", "ooo")))
        print(grid.speedup("trfd", "ooo"))

— without touching ``os.environ`` or any process-global state once its
settings are resolved.  Exhibit computations pass the session's engine to
the ``table*`` / ``figure*`` experiment functions, so two sessions, even
in two threads, never share an engine or a cache; a caller that runs an
experiment function directly passes ``engine=session.engine``.

Sessions are context managers: ``close()`` shuts down the engine's worker
pool and drains any fleet workers the session spawned.  A closed session
raises on further use.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.api.handle import RunHandle
from repro.api.request import (
    ExhibitResult,
    ExhibitSet,
    RunRequest,
    RunResult,
    resolve_scale,
    validate_programs,
)
from repro.api.settings import Settings
from repro.common.errors import ReproError
from repro.core.config import MachineConfig, get_config
from repro.core.results import SimulationResult
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
)
from repro.trace.store import TraceStore, load_trace
from repro.workloads.registry import WORKLOAD_NAMES

if TYPE_CHECKING:
    from repro.trace.records import Trace


def engine_summary_dict(engine: ExperimentEngine) -> dict[str, Any]:
    """The engine's cache/execution counters as a JSON-compatible mapping.

    This is the ``engine`` section of ``run-all --format json`` documents;
    the CLI and :meth:`Session.exhibits` share it so the two outputs can
    never drift apart.
    """
    summary: dict[str, Any] = {
        "simulated": engine.simulated,
        "disk_hits": engine.disk_hits,
        "memory_hits": engine.memory_hits,
        "jobs": engine.jobs,
        "store": engine.store.describe(),
    }
    if engine.fleet:
        summary["fleet"] = {
            "workers": engine.fleet,
            "dispatched": engine.fleet_points,
        }
    return summary


class Session:
    """Owns the cache directory, stores and engine for a series of runs.

    Construct from a resolved :class:`Settings` or directly from keyword
    overrides (``Session(cache_dir=…, jobs=4)``), which are resolved with
    the standard precedence (explicit kwargs > environment > defaults).
    """

    def __init__(self, settings: Settings | None = None, **overrides: Any) -> None:
        if settings is None:
            settings = Settings.resolve(**overrides)
        elif overrides:
            settings = settings.override(**overrides)
        self.settings = settings
        self._store = ResultStore(settings.cache_dir)
        self.engine = ExperimentEngine(
            self._store, jobs=settings.jobs, fleet=settings.fleet)
        #: the compiled-trace store in the result store's bucket, for
        #: :meth:`gc` (``None`` without a cache directory)
        self.trace_store = (
            TraceStore(self._store.backend.objects)
            if self._store.backend is not None else None
        )
        self._closed = False

    # -- owned components ----------------------------------------------------

    @property
    def store(self) -> ResultStore:
        """The two-level simulation-result store this session resolves through."""
        return self._store

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("this Session is closed")

    # -- grid execution ------------------------------------------------------

    def submit(self, request: RunRequest) -> RunHandle:
        """Submit a workload × configuration grid; returns a :class:`RunHandle`.

        The handle has the same shape whatever the execution mode —
        ``handle.status()`` for progress, ``handle.watch(timeout=...)`` to
        block, ``handle.result()`` for the finished
        :class:`~repro.api.RunResult`.  With fleet execution enabled
        (``Settings(fleet=N)`` / ``REPRO_FLEET``) the grid's cache misses
        are enqueued on the shared object-store queue *now* and workers
        start immediately; otherwise nothing executes until the first
        ``watch()``/``result()`` call (see :mod:`repro.api.handle`).
        """
        self._check_open()
        workloads = request.resolved_workloads()
        configs = request.resolved_configs()
        scale = request.resolved_scale()
        spec = ExperimentSpec.grid("api-run", workloads, configs, scale=scale)
        handle = RunHandle(request, self.engine, spec)
        if self.engine.fleet:
            handle._enqueue()
        return handle

    def run(self, request: RunRequest) -> RunResult:
        """Execute a grid and wait for it: ``submit(request).result()``.

        Missing points simulate (in parallel or on the fleet, per the
        effective settings); cached points are served as defensive copies.
        """
        return self.submit(request).result()

    def result(
        self,
        workload: str,
        config: str | MachineConfig,
        scale: str = "small",
    ) -> SimulationResult:
        """One cached simulation result (simulating on a miss)."""
        self._check_open()
        if isinstance(config, str):
            config = get_config(config)
        point = ExperimentPoint(workload, resolve_scale(scale), config)
        return self.engine.run_point(point)

    def simulate(
        self,
        program: str,
        config: str | MachineConfig = "ooo",
        scale: str = "small",
    ) -> SimulationResult:
        """Simulate one point directly (no result-store memoisation).

        The trace comes from the session's bucket when it has a cache
        directory, as it does in the engine's workers.
        """
        self._check_open()
        from repro.core.simulator import simulate_point

        if program not in WORKLOAD_NAMES:
            raise ReproError(
                f"unknown program {program!r}; "
                f"available: {', '.join(WORKLOAD_NAMES)}"
            )
        if isinstance(config, str):
            config = get_config(config)
        point = ExperimentPoint(program, resolve_scale(scale), config)
        return simulate_point(point, self._store.bucket_root)

    def simulate_trace(self, trace: Trace, config: str | MachineConfig) -> SimulationResult:
        """Simulate an already-built trace (e.g. a custom compiled kernel).

        Dispatches through the machine-model registry, so any registered
        model — not just the paper's two machines — can run a
        bring-your-own-kernel trace.  No memoisation: custom traces carry
        no registry identity to fingerprint.
        """
        self._check_open()
        from repro.core.simulator import simulate_trace

        if isinstance(config, str):
            config = get_config(config)
        return simulate_trace(trace, config)

    def trace(self, workload: str, scale: str = "small") -> Trace:
        """The compiled trace of one workload (memoised in the bucket when possible)."""
        self._check_open()
        return load_trace(workload, resolve_scale(scale), self._store.bucket_root)

    # -- exhibits ------------------------------------------------------------

    def iter_exhibits(
        self,
        names: Iterable[str] | None = None,
        programs: Iterable[str] | None = None,
        scale: str = "small",
    ) -> Iterator[ExhibitResult]:
        """Compute the selected exhibits lazily, in paper order.

        Yields each :class:`~repro.api.ExhibitResult` as soon as it is
        computed (the CLI streams its text output from this).  All
        simulation resolves through this session's engine and stores.
        """
        self._check_open()
        from repro.analysis.exhibits import get_exhibits

        try:
            exhibits = get_exhibits(tuple(names) if names is not None else None)
        except KeyError as exc:
            raise ReproError(exc.args[0]) from exc
        if not exhibits:
            raise ReproError("exhibit subset selected nothing")
        selected = validate_programs(
            tuple(programs) if programs is not None else None)
        resolved_scale = resolve_scale(scale)
        for exhibit in exhibits:
            started = time.perf_counter()
            data = exhibit.run(selected, resolved_scale, self.engine)
            elapsed = time.perf_counter() - started
            yield ExhibitResult(
                name=exhibit.name,
                title=exhibit.title,
                data=data,
                elapsed_s=elapsed,
                renderer=exhibit.render,
            )

    def exhibits(
        self,
        names: Iterable[str] | None = None,
        programs: Iterable[str] | None = None,
        scale: str = "small",
    ) -> ExhibitSet:
        """Compute the selected exhibits and return them as one value.

        Every table/figure is reachable as data (``set.data``, ``set[name]``)
        and renderable as exactly the CLI's text/JSON/CSV documents.
        """
        computed = tuple(self.iter_exhibits(names, programs, scale))
        return ExhibitSet(
            scale=scale,
            programs=validate_programs(
                tuple(programs) if programs is not None else None),
            exhibits=computed,
            engine_summary=engine_summary_dict(self.engine),
        )

    # -- maintenance ---------------------------------------------------------

    def gc(self) -> Mapping[str, tuple[int, int]]:
        """Evict stale/corrupt entries from the bucket's stored namespaces.

        Returns ``{"results": (kept, evicted), "traces": (kept, evicted)}``.
        Requires a cache directory.  The fleet's ``queue/`` namespace needs
        no collection: completing a task deletes its queue objects.
        """
        self._check_open()
        if self.trace_store is None:
            raise ReproError("gc requires a cache directory")
        return {"results": self._store.gc(), "traces": self.trace_store.gc()}

    def engine_summary(self) -> dict[str, Any]:
        """The engine counters as a JSON-compatible mapping."""
        return engine_summary_dict(self.engine)

    def summary(self) -> str:
        """The engine's one-line cache/execution summary (CLI trailer)."""
        return self.engine.summary()

    def flush(self) -> None:
        """No-op kept for API stability.

        The result store writes every result through to disk at once, so
        nothing is ever buffered.
        """
        self._check_open()
        self._store.flush()

    def close(self) -> None:
        """Release the worker pool and fleet workers; the session becomes unusable."""
        if not self._closed:
            self._closed = True
            self.engine.close()

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

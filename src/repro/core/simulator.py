"""Top-level simulation API.

:func:`simulate_point` is the only way any process simulates a grid
point: the engine in-process and in its pool workers, a fleet worker and
:meth:`repro.api.Session.simulate` all call it.  It gets the point's trace
from :func:`repro.trace.store.load_trace` and steps it through
:func:`simulate_trace`, which runs an existing trace (a custom kernel's
too).  Each returns a :class:`~repro.core.results.SimulationResult` that
bundles the configuration, the workload identity and the collected
statistics.

Memoised results come from an experiment engine's result store instead
(``engine.result(workload, config, scale)``, see
:mod:`repro.core.runner`; a :class:`repro.api.Session` owns one), shared
with the ``table*`` / ``figure*`` experiment functions and — when a cache
directory is configured — persisted across processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.common.stats import check_invariants
from repro.core.config import MachineConfig
from repro.core.machines import create_run
from repro.core.results import SimulationResult
from repro.trace.store import load_trace

if TYPE_CHECKING:
    from repro.core.runner import ExperimentPoint
    from repro.trace.records import Trace


def simulate_trace(trace: Trace, config: MachineConfig) -> SimulationResult:
    """Run an existing trace through the machine described by ``config``.

    Empty traces are rejected here — once, for every simulator path — so
    that no caller can obtain a ``cycles == 0`` result that later explodes
    in speedup ratios.

    The machine steps through the pre-lowered structure-of-arrays stepper
    (:func:`repro.machine.batched.run_slice_batched`); a machine without a
    registered stepper runs its own ``run_slice``.  The per-instruction
    ``run_slice`` of the built-in machines is the executable spec the
    stepper is tested against (``tests/test_batched_kernel.py``), and
    every result of a built-in machine — the ones with a registered
    stepper — must keep the bounds of
    :func:`~repro.common.stats.check_invariants`, or the point raises
    :class:`SimulationError`.
    """
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    # machine-model registry dispatch (repro.core.machines): any registered
    # model — including ones added by downstream code — simulates here
    machine = create_run(config.params, trace)
    from repro.machine.batched import has_lowering, run_slice_batched

    run_slice_batched(machine, trace)
    stats = machine.finalise()
    if has_lowering(machine):
        try:
            check_invariants(stats)
        except SimulationError as err:
            raise SimulationError(f"{trace.name} on {config.name}: {err}") from None
    return SimulationResult(
        workload=trace.name,
        config_name=config.name,
        params=config.params,
        stats=stats,
    )


def simulate_point(point: ExperimentPoint, bucket_root: str | None = None) -> SimulationResult:
    """Simulate one grid point; the only way any process simulates one.

    The trace comes from :func:`~repro.trace.store.load_trace`: with a
    ``bucket_root`` it is loaded from that bucket, or compiled and put
    there, once per process; without one it is the workload's own
    in-process memo.  A top-level function, so a process pool can pickle
    it and pickle the returned result back.
    """
    return simulate_trace(load_trace(point.workload, point.scale, bucket_root), point.config)

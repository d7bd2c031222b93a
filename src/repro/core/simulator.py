"""Top-level simulation API.

:func:`simulate_point` is what engine and fleet workers run for one grid
point; :func:`simulate_trace` steps an existing trace, and ``run(workload,
config)``, which only tests call, simulates a workload by name.  Each
returns a :class:`~repro.core.results.SimulationResult` that bundles the
configuration, the workload identity and the collected statistics.

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
from repro.trace.store import TraceStore
from repro.workloads.registry import get_workload

if TYPE_CHECKING:
    from repro.trace.records import Trace
    from repro.workloads.base import Workload


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


def run(workload: Workload | str, config: MachineConfig, scale: str = "small") -> SimulationResult:
    """Simulate ``workload`` (an object or a registry name) on ``config``."""
    if isinstance(workload, str):
        workload = get_workload(workload, scale)
    return simulate_trace(workload.trace(), config)


def simulate_point(
    workload_name: str,
    scale: str,
    config: MachineConfig,
    trace_store: TraceStore | None = None,
) -> SimulationResult:
    """Simulate one (workload, scale, configuration) point.

    This is the entry point the experiment engine's worker processes and
    fleet workers call: with a :class:`TraceStore` the compiled trace comes
    from :meth:`TraceStore.load_memoised`, which loads it from the bucket,
    or compiles it and puts it there, once per process.
    """
    if trace_store is not None:
        trace = trace_store.load_memoised(workload_name, scale)
    else:
        trace = get_workload(workload_name, scale).trace()
    return simulate_trace(trace, config)


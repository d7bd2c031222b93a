"""Top-level simulation API.

``run(workload, config)`` is the single entry point the examples, tests and
benchmark harness use: it produces (and caches) the workload's trace, picks
the right simulator for the configuration, and returns a
:class:`~repro.core.results.SimulationResult` that bundles the configuration,
the workload identity and the collected statistics.

Memoised results come from the experiment engine's result store instead
(``get_engine().result(workload, config, scale)``, see
:mod:`repro.core.runner`), shared with the ``table*`` / ``figure*``
experiment functions and — when a cache directory is configured —
persisted across processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.core.config import MachineConfig
from repro.core.machines import create_run
from repro.core.results import SimulationResult
from repro.core.runner import get_engine
from repro.core.settings import DEFAULT_KERNEL, KERNEL_NAMES
from repro.trace.store import TraceStore
from repro.workloads.registry import get_workload

if TYPE_CHECKING:
    from repro.trace.records import Trace
    from repro.workloads.base import Workload


def simulate_trace(
    trace: Trace, config: MachineConfig, kernel: str = DEFAULT_KERNEL
) -> SimulationResult:
    """Run an existing trace through the machine described by ``config``.

    Empty traces are rejected here — once, for every simulator path — so
    that no caller can obtain a ``cycles == 0`` result that later explodes
    in speedup ratios.

    ``kernel`` selects the stepper: ``"batched"`` (the default) is the
    pre-lowered structure-of-arrays stepper (:mod:`repro.machine.batched`),
    ``"scalar"`` the per-instruction dispatch loop it is tested against.
    Both produce bit-identical statistics; machines without a registered
    batched stepper silently run the scalar kernel.
    """
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    if kernel not in KERNEL_NAMES:
        raise SimulationError(
            f"unknown machine kernel {kernel!r}; "
            f"available: {', '.join(KERNEL_NAMES)}"
        )
    # machine-model registry dispatch (repro.core.machines): any registered
    # model — including ones added by downstream code — simulates here
    machine = create_run(config.params, trace)
    if kernel == "batched":
        from repro.machine.batched import run_slice_batched

        run_slice_batched(machine, trace)
    else:
        machine.run_slice(trace)
    stats = machine.finalise()
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
    kernel: str = DEFAULT_KERNEL,
) -> SimulationResult:
    """Simulate one (workload, scale, configuration) point.

    This is the entry point the experiment engine's worker processes call:
    with a :class:`TraceStore` the compiled trace is deserialised from disk
    (the engine pre-warms the store in the parent process) instead of being
    recompiled per worker.
    """
    if trace_store is not None:
        trace = trace_store.load_memoised(workload_name, scale)
    else:
        trace = get_workload(workload_name, scale).trace()
    return simulate_trace(trace, config, kernel=kernel)


def clear_simulation_cache() -> None:
    """Drop memoised simulation results (mainly for tests).

    Only the in-memory layer of the default engine's store is cleared;
    on-disk cache entries survive.
    """
    get_engine().store.clear_memory()

"""Public API: configurations, the run() entry point and the experiments."""

from repro.core.config import (
    DEFAULT_LATENCY,
    LATENCY_SWEEP,
    MachineConfig,
    REFERENCE_LATENCY_SWEEP,
    REGISTER_SWEEP,
    get_config,
    ooo_config,
    reference_config,
    standard_configs,
)
from repro.core.results import SimulationResult
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
    get_engine,
    run_experiment,
    set_engine,
)
from repro.core.simulator import clear_simulation_cache, run, simulate_trace

__all__ = [
    "ExperimentEngine",
    "ExperimentPoint",
    "ExperimentSpec",
    "ResultStore",
    "get_engine",
    "run_experiment",
    "set_engine",
    "DEFAULT_LATENCY",
    "LATENCY_SWEEP",
    "MachineConfig",
    "REFERENCE_LATENCY_SWEEP",
    "REGISTER_SWEEP",
    "get_config",
    "ooo_config",
    "reference_config",
    "standard_configs",
    "SimulationResult",
    "clear_simulation_cache",
    "run",
    "simulate_trace",
]

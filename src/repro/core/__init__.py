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
)
from repro.core.simulator import run, simulate_trace

__all__ = [
    "ExperimentEngine",
    "ExperimentPoint",
    "ExperimentSpec",
    "ResultStore",
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
    "run",
    "simulate_trace",
]

"""Public API: configurations, the engine and the simulate_point() entry point."""

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
from repro.core.simulator import simulate_point, simulate_trace

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
    "simulate_point",
    "simulate_trace",
]

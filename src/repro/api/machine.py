"""Public machine-model surface: the protocol and the registry.

Re-exports the :class:`~repro.core.machines.Machine` protocol — the
``run_slice`` / ``finalise`` contract every timing model implements —
together with the named registry that the simulator
(:func:`repro.core.simulator.simulate_trace`) and the experiment engine
dispatch through.  Registering a :class:`~repro.core.machines.MachineModel`
is everything a new timing model needs to participate in single-point
simulation and sweep grids — no driver code changes required.
"""

from __future__ import annotations

from repro.core.config import MachineConfig, machine_config
from repro.core.machines import (
    Machine,
    MachineModel,
    create_run,
    get_machine_model,
    machine_names,
    model_for_params,
    register_machine,
)

__all__ = [
    "Machine",
    "MachineConfig",
    "MachineModel",
    "create_run",
    "get_machine_model",
    "machine_config",
    "machine_names",
    "model_for_params",
    "register_machine",
]

"""Named machine configurations used throughout the paper's evaluation.

Every experiment in Section 4–6 is a comparison between a handful of
configurations; this module gives them stable names so experiments, tests
and examples all talk about the same machines:

* ``reference``            — the in-order Convex C3400 model (Section 2.1);
* ``inorder``              — the registered intermediate design point:
  the OOOVA front end (renaming, reorder buffer, queues, prediction) with
  strict in-order, one-per-cycle issue (see :mod:`repro.machine.inorder`);
* ``ooo``                  — the OOOVA with early commit (Section 2.2);
* ``ooo-late``             — the OOOVA with precise traps (late commit,
  stores at the head of the reorder buffer; Section 5);
* ``ooo-late-sle``         — late commit plus scalar load elimination;
* ``ooo-late-sle-vle``     — late commit plus scalar and vector load
  elimination (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.common.errors import ConfigurationError
from repro.common.params import (
    CommitModel,
    InOrderParams,
    LoadElimination,
    OOOParams,
    ReferenceParams,
)

MachineParams = Union[ReferenceParams, OOOParams]

#: physical vector register counts swept in Figures 5 and 9
REGISTER_SWEEP = (9, 16, 32, 64)

#: memory latencies used for the reference-architecture study (Figures 3, 4)
REFERENCE_LATENCY_SWEEP = (1, 20, 70, 100)

#: memory latencies used for the latency-tolerance study (Figure 8)
LATENCY_SWEEP = (1, 50, 100)

#: default memory latency for all other experiments
DEFAULT_LATENCY = 50


@dataclass(frozen=True)
class MachineConfig:
    """A named, fully specified machine configuration."""

    name: str
    params: MachineParams


def reference_config(latency: int = DEFAULT_LATENCY) -> MachineConfig:
    """The in-order reference machine."""
    return MachineConfig("reference", ReferenceParams().with_memory_latency(latency))


def ooo_config(
    phys_vregs: int = 16,
    latency: int = DEFAULT_LATENCY,
    commit_model: CommitModel = CommitModel.EARLY,
    load_elimination: LoadElimination = LoadElimination.NONE,
    queue_slots: int = 16,
) -> MachineConfig:
    """An OOOVA machine with the given knobs (defaults match the paper)."""
    name_parts = ["ooo"]
    if commit_model is CommitModel.LATE:
        name_parts.append("late")
    if load_elimination is LoadElimination.SLE:
        name_parts.append("sle")
    elif load_elimination is LoadElimination.SLE_VLE:
        name_parts.append("sle-vle")
    params = OOOParams(
        num_phys_vregs=phys_vregs,
        commit_model=commit_model,
        load_elimination=load_elimination,
        queue_slots=queue_slots,
    ).with_memory_latency(latency)
    return MachineConfig("-".join(name_parts), params)


def inorder_config(
    phys_vregs: int = 16,
    latency: int = DEFAULT_LATENCY,
    queue_slots: int = 16,
) -> MachineConfig:
    """The in-order-issue + renaming intermediate machine.

    Same resources as the early-commit OOOVA (so the ``reference`` →
    ``inorder`` → ``ooo`` comparison isolates the issue policy), built on
    the registered :class:`repro.common.params.InOrderParams`.
    """
    params = InOrderParams(
        num_phys_vregs=phys_vregs,
        queue_slots=queue_slots,
    ).with_memory_latency(latency)
    return MachineConfig("inorder", params)


def machine_config(name: str, latency: int = DEFAULT_LATENCY) -> MachineConfig:
    """A default configuration for any registered machine model.

    Standard configuration names resolve through :func:`get_config`; any
    other name is looked up in the machine-model registry and built from
    its parameter type's defaults (honouring ``with_memory_latency`` when
    the type provides it) — so ``simulate --config mymodel`` works for
    third-party registrations too.  An unknown name lists both.
    """
    try:
        return get_config(name, latency)
    except ConfigurationError as exc:
        unknown = str(exc)
    from repro.core.machines import get_machine_model, machine_names

    if name not in machine_names():
        raise ConfigurationError(f"{unknown}; machines: {', '.join(machine_names())}")
    model = get_machine_model(name)
    try:
        params = model.params_type()
    except TypeError as exc:
        raise ConfigurationError(
            f"machine {name!r} has no default parameters; "
            "build a MachineConfig with explicit parameters instead"
        ) from exc
    if hasattr(params, "with_memory_latency"):
        params = params.with_memory_latency(latency)
    return MachineConfig(model.name, params)


def standard_configs(latency: int = DEFAULT_LATENCY) -> dict[str, MachineConfig]:
    """The six named configurations used throughout the evaluation."""
    return {
        "reference": reference_config(latency),
        "inorder": inorder_config(latency=latency),
        "ooo": ooo_config(latency=latency),
        "ooo-late": ooo_config(latency=latency, commit_model=CommitModel.LATE),
        "ooo-late-sle": ooo_config(
            latency=latency, commit_model=CommitModel.LATE,
            load_elimination=LoadElimination.SLE,
        ),
        "ooo-late-sle-vle": ooo_config(
            latency=latency, commit_model=CommitModel.LATE,
            load_elimination=LoadElimination.SLE_VLE,
        ),
    }


def get_config(name: str, latency: int = DEFAULT_LATENCY) -> MachineConfig:
    """Look a standard configuration up by name."""
    configs = standard_configs(latency)
    try:
        return configs[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown configuration {name!r}; available: {', '.join(sorted(configs))}"
        ) from exc

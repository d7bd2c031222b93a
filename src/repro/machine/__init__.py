"""``repro.machine`` — the component-based machine kernel.

* :mod:`repro.machine.component` — the :class:`MachineComponent` contract
  (``snapshot``/``restore``/``digest``/``reset``);
* :mod:`repro.machine.core` — :class:`StagedMachine`, the shared
  staged-execution core both of the paper's machines (and the registered
  ``inorder`` intermediate) are declared on;
* :mod:`repro.machine.inorder` — the third registered machine: in-order
  single issue *with* register renaming, the paper's natural intermediate
  design point (imported lazily by the machine-model registry).

The package ``__init__`` stays import-light: the component contract has no
``repro`` dependencies, and :class:`StagedMachine` is resolved lazily so
that low-level modules (``repro.common.resources`` and friends) can import
the contract without dragging the whole simulator in.
"""

from __future__ import annotations

from typing import Any

from repro.machine.component import ComponentBase, MachineComponent, state_digest

__all__ = [
    "ComponentBase",
    "MachineComponent",
    "StagedMachine",
    "state_digest",
]


def __getattr__(name: str) -> Any:
    if name == "StagedMachine":
        from repro.machine.core import StagedMachine

        return StagedMachine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""The :class:`MachineComponent` contract: self-describing pipeline state.

Every piece of mutable machine state — rename maps, reorder buffer, issue
queues, branch predictor, memory pipeline, load-elimination tables,
register files, functional-unit resources — is a *component* with one
uniform contract:

* ``snapshot()`` / ``restore(state)`` — JSON-compatible round-trip of all
  mutable state (``restore`` accepts a ``snapshot`` taken from another
  instance built with the same construction parameters);
* ``reset()`` — return to the freshly constructed state;
* ``digest()`` — stable hex digest of the snapshot (divergence detection;
  :class:`ComponentBase` derives it canonically).

The snapshot is the state oracle of the batched-vs-scalar differential
tests, and the static checker (:mod:`repro.checks`) proves it complete.

A machine (:class:`repro.machine.core.StagedMachine`) is then declared as
a named set of components plus a per-instruction-class dispatch table; its
``snapshot``/``restore``/``reset``/``digest`` plumbing is derived from the
component registry instead of being maintained by hand.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Protocol, runtime_checkable


def state_digest(state: Any) -> str:
    """Stable hex digest of a JSON-compatible state value."""
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@runtime_checkable
class MachineComponent(Protocol):
    """Structural protocol every registered machine component satisfies."""

    def snapshot(self) -> Any:
        """JSON-compatible snapshot of all mutable state."""
        ...

    def restore(self, state: Any) -> None:
        """Reinstate a :meth:`snapshot` (replaces all current state)."""
        ...

    def reset(self) -> None:
        """Return to the freshly constructed state."""
        ...

    def digest(self) -> str:
        """Stable hex digest of the current :meth:`snapshot`."""
        ...


class ComponentBase:
    """Mixin providing the derived half of the component contract.

    Subclasses implement ``snapshot``/``restore``/``reset``; ``digest``
    is canonical (a SHA-256 over the sorted-key JSON of the snapshot) so
    two components with equal snapshots always digest equally, whatever
    their in-memory layout.
    """

    def snapshot(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def restore(self, state: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def digest(self) -> str:
        """Stable hex digest of the current :meth:`snapshot`."""
        return state_digest(self.snapshot())

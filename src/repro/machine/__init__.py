"""``repro.machine`` — the staged machine kernel.

* :mod:`repro.machine.core` — :class:`StagedMachine`, the shared
  staged-execution core both of the paper's machines (and the registered
  ``inorder`` intermediate) are declared on;
* :mod:`repro.machine.batched` — the structure-of-arrays stepper kernel:
  one whole slice on a fresh machine, finalised to exactly the spec's
  statistics;
* :mod:`repro.machine.inorder` — the third registered machine: in-order
  single issue *with* register renaming, the paper's natural intermediate
  design point (imported lazily by the machine-model registry).
"""

from __future__ import annotations

from repro.machine.core import StagedMachine

__all__ = ["StagedMachine"]

"""A toy machine model that registers itself when this module is imported.

Pool workers start from a fresh import, so a third-party model reaches
them only this way: unpickling a point's parameters imports this module,
and the import registers the model (``tests/test_runner.py`` runs it in a
``jobs=2`` grid).
"""

from dataclasses import dataclass

from repro.common.stats import SimStats
from repro.core.machines import MachineModel, register_machine

#: registry name of the toy model
NAME = "pool-test-flat"


@dataclass(frozen=True)
class FlatParams:
    cycles_per_instruction: int = 3


class FlatRun:
    """Every instruction costs a fixed number of cycles."""

    def __init__(self, params, trace):
        self.params = params
        self.cycles = 0

    def run_slice(self, instructions):
        for _ in instructions:
            self.cycles += self.params.cycles_per_instruction

    def finalise(self):
        stats = SimStats()
        stats.cycles = self.cycles
        return stats


register_machine(MachineModel(name=NAME, params_type=FlatParams, factory=FlatRun))

#!/usr/bin/env python3
"""Bring your own *machine*: register a third-party timing model.

The repository ships three machine models (``reference``, ``inorder``,
``ooo``), but the machine-model registry is open: any object satisfying
the :class:`repro.api.Machine` protocol — ``run_slice`` / ``finalise``
plus a ``params`` attribute — can be registered under a name and then
participates in single-point simulation and sweep grids.

This example builds the simplest interesting model — a single-issue
scoreboard machine that charges one cycle per scalar operation, one cycle
per vector *element* and a flat memory penalty per memory instruction —
registers it through :mod:`repro.api` only, and runs it against the
built-in machines, in one ``run_slice`` call and resumed across two.

A machine's results must be a pure, deterministic function of its trace
and parameters.  The test suite holds this file to that: it loads it by
path and fails if ``run_slice`` or ``finalise`` reads the clock,
randomness, the process id, the environment or a file, or if any result
or machine state changes with ``PYTHONHASHSEED`` (``tests/test_purity.py``).
Before shipping a machine of your own, run it through the same checks
(``tests/purity.py``).

Run with::

    python examples/custom_machine.py [program]
"""

import sys
from dataclasses import dataclass

from repro.api import (
    MachineConfig,
    MachineModel,
    Session,
    create_run,
    register_machine,
)


@dataclass(frozen=True)
class ScoreboardParams:
    """Knobs of the toy machine (a frozen dataclass, like the built-ins)."""

    #: flat cycles charged per memory instruction (vector or scalar)
    memory_penalty: int = 20
    #: cycles per vector element processed
    cycles_per_element: int = 1


class ScoreboardMachine:
    """A single-issue accumulator: the minimal ``Machine`` implementation.

    No renaming, no overlap — every instruction costs its latency in
    full.  State carries over between ``run_slice`` calls, so a run can be
    fed in any number of consecutive slices before ``finalise``.
    """

    def __init__(self, params, trace):
        self.params = params
        self.trace = trace
        self.cycles = 0
        self.instructions = 0
        self.vector_operations = 0

    def run_slice(self, instructions):
        for dyn in instructions:
            self.instructions += 1
            if dyn.is_vector:
                self.vector_operations += dyn.vl
                self.cycles += max(dyn.vl, 1) * self.params.cycles_per_element
            else:
                self.cycles += 1
            if dyn.is_memory:
                self.cycles += self.params.memory_penalty

    def finalise(self):
        from repro.common.stats import SimStats

        stats = SimStats()
        stats.cycles = self.cycles
        stats.scalar_instructions = self.instructions
        stats.vector_operations = self.vector_operations
        return stats


register_machine(MachineModel(
    name="scoreboard",
    params_type=ScoreboardParams,
    factory=lambda params, trace: ScoreboardMachine(params, trace),
))


def main() -> int:
    program = sys.argv[1] if len(sys.argv) > 1 else "trfd"
    config = MachineConfig("scoreboard", ScoreboardParams())

    with Session() as session:
        whole = session.simulate(program, config)
        reference = session.simulate(program, "reference")
        ooo = session.simulate(program, "ooo")
        trace = session.trace(program)

    # the Machine contract: state carries over between run_slice calls
    half = len(trace.instructions) // 2
    resumed = create_run(config.params, trace)
    resumed.run_slice(trace.instructions[:half])
    resumed.run_slice(trace.instructions[half:])
    assert resumed.finalise().to_dict() == whole.stats.to_dict(), \
        "resumed run diverged from the single-slice run"

    print(f"Program: {program}")
    print(f"  scoreboard (toy) : {whole.cycles} cycles "
          "(bit-identical when resumed across two run_slice calls)")
    print(f"  reference        : {reference.cycles} cycles")
    print(f"  ooo              : {ooo.cycles} cycles")
    print("A registered machine is a first-class citizen: grids and the "
          "CLI's simulate --config dispatch through the registry.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

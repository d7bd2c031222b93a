#!/usr/bin/env python3
"""Dynamic load elimination study (the paper's Figures 11, 12 and 13).

Starting from the precise-trap (late commit) OOOVA, this example enables
scalar load elimination (SLE) and then scalar+vector load elimination
(SLE+VLE) and reports the speedups and the reduction in memory traffic.
The spill-bound programs (trfd, dyfesm, bdna) benefit the most, exactly as
in the paper.

The whole sweep is declared as one :class:`repro.api.RunRequest` and
resolved through a :class:`repro.api.Session`, so every result is
addressable as data.

Run with::

    python examples/load_elimination.py [program ...]
"""

import sys

from repro.analysis import format_table
from repro.api import RunRequest, Session
from repro.common.params import CommitModel, LoadElimination
from repro.core import ooo_config
from repro.workloads import WORKLOAD_NAMES

DEFAULT_PROGRAMS = ("swm256", "bdna", "trfd", "dyfesm")


def main() -> int:
    requested = tuple(sys.argv[1:]) or DEFAULT_PROGRAMS
    programs = []
    for program in requested:
        if program not in WORKLOAD_NAMES:
            print(f"skipping unknown program {program!r}")
            continue
        programs.append(program)
    if not programs:
        return 1

    baseline_cfg = ooo_config(phys_vregs=32, commit_model=CommitModel.LATE)
    sle_cfg = ooo_config(phys_vregs=32, commit_model=CommitModel.LATE,
                         load_elimination=LoadElimination.SLE)
    vle_cfg = ooo_config(phys_vregs=32, commit_model=CommitModel.LATE,
                         load_elimination=LoadElimination.SLE_VLE)
    with Session() as session:
        grid = session.run(RunRequest(
            workloads=tuple(programs),
            configs=(baseline_cfg, sle_cfg, vle_cfg),
        ))

    rows = []
    for program in programs:
        baseline = grid.get(program, baseline_cfg)
        sle = grid.get(program, sle_cfg)
        vle = grid.get(program, vle_cfg)
        rows.append([
            program,
            baseline.cycles,
            sle.speedup_over(baseline),
            vle.speedup_over(baseline),
            vle.traffic_reduction_over(baseline),
            vle.stats.loads_eliminated,
            vle.stats.traffic.eliminated_scalar_load_ops,
        ])
    print(format_table(
        ["program", "baseline cycles", "SLE speedup", "SLE+VLE speedup",
         "traffic reduction", "vloads eliminated", "scalar loads eliminated"],
        rows,
        title="Dynamic load elimination at 32 physical vector registers (late commit)",
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

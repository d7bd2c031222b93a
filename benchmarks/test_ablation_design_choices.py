"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not exhibits from the paper; they quantify how much each
micro-architectural ingredient contributes, using a representative subset of
the workload suite:

* commit bandwidth (1 vs 4 instructions per cycle),
* static load hoisting by the compiler versus dynamic reordering.
"""

import dataclasses

from _harness import emit, run_once

from repro.analysis import format_table
from repro.common.params import OOOParams
from repro.compiler.pipeline import compile_kernel
from repro.core import ooo_config, reference_config, simulate_trace
from repro.core.config import MachineConfig
from repro.trace.generator import generate_trace
from repro.workloads import get_workload

PROGRAMS = ("swm256", "flo52", "trfd")


def _commit_width_ablation(engine):
    rows = []
    for name in PROGRAMS:
        wide = engine.result(name, ooo_config(phys_vregs=16))
        narrow_params = dataclasses.replace(OOOParams(num_phys_vregs=16), commit_width=1)
        narrow = engine.result(name, MachineConfig("ooo-commit1", narrow_params))
        rows.append([name, wide.cycles, narrow.cycles, narrow.cycles / wide.cycles])
    return rows


def test_ablation_commit_width(benchmark):
    rows = run_once(benchmark, _commit_width_ablation)
    emit("Ablation: committing 4 instructions per cycle vs 1",
         format_table(["program", "commit=4", "commit=1", "slowdown"], rows))
    for row in rows:
        assert row[3] >= 0.999, row


def _scheduling_ablation(engine):
    rows = []
    for name in PROGRAMS:
        default = engine.result(name, reference_config())
        hoisted_program = compile_kernel(
            get_workload(name).build_kernel(), scheduling="loads_first")
        hoisted_trace = generate_trace(hoisted_program.program)
        hoisted = simulate_trace(hoisted_trace, reference_config())
        ooo = engine.result(name, ooo_config(phys_vregs=16))
        rows.append([name, default.cycles, hoisted.cycles, ooo.cycles])
    return rows


def test_ablation_static_load_hoisting(benchmark):
    rows = run_once(benchmark, _scheduling_ablation)
    emit("Ablation: compiler load hoisting on the in-order machine vs out-of-order issue",
         format_table(["program", "REF as-is", "REF loads-first", "OOOVA-16"], rows))
    for row in rows:
        # Static scheduling cannot recover what dynamic reordering recovers.
        assert row[3] < row[1], row
        assert row[3] < row[2], row

"""One entry point per table and figure of the paper's evaluation.

Each function runs the simulations behind one exhibit of the paper and
returns plain data structures (dictionaries keyed by program name).  The
benchmark harness under ``benchmarks/`` and the ``python -m repro.cli``
entry point call these functions and print the resulting tables.  No
document records the measured values next to the paper's; some benchmarks
assert the paper's trends and quote its numbers in comments.  All
functions accept a ``programs`` subset and a ``scale`` so the test suite can
exercise them cheaply.

Every function that simulates takes the keyword-only ``engine`` it runs
on, declares its sweep grid as an :class:`~repro.core.runner.ExperimentSpec`
and resolves it through that engine in one batch: the engine simulates only
the points missing from its result store and can fan the batch out across
worker processes (``--jobs``), so a figure's whole grid is computed with
maximum reuse and parallelism instead of one serial loop of single-point
lookups.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Mapping, Sequence

from repro.common.params import CommitModel, FunctionalUnitLatencies, LoadElimination
from repro.core.config import (
    DEFAULT_LATENCY,
    LATENCY_SWEEP,
    MachineConfig,
    REFERENCE_LATENCY_SWEEP,
    REGISTER_SWEEP,
    inorder_config,
    ooo_config,
    reference_config,
)
from repro.core.results import SimulationResult
from repro.core.runner import ExperimentEngine, ExperimentPoint, ExperimentSpec
from repro.trace.stats import TraceStatistics
from repro.workloads.registry import WORKLOAD_NAMES

#: the two programs the paper uses as representatives in Figure 3
FIGURE3_PROGRAMS = ("hydro2d", "dyfesm")

#: physical register counts used in the load-elimination studies (Figs 11-12)
LOAD_ELIMINATION_REGISTER_SWEEP = (16, 32, 64)


def _programs(programs: Iterable[str] | None) -> tuple[str, ...]:
    return tuple(programs) if programs is not None else WORKLOAD_NAMES


class _Grid:
    """Resolved sweep grid: point lookup by (workload, config)."""

    def __init__(
        self,
        name: str,
        workloads: Sequence[str],
        configs: Sequence[MachineConfig],
        scale: str,
        engine: ExperimentEngine,
    ) -> None:
        self.scale = scale
        spec = ExperimentSpec.grid(name, workloads, configs, scale)
        self._results = engine.run_spec(spec)

    def __call__(self, workload: str, config: MachineConfig) -> SimulationResult:
        return self._results[ExperimentPoint(workload, self.scale, config)]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_functional_unit_latencies() -> dict[str, int]:
    """Table 1: functional-unit latencies (cycles) used by both machines."""
    return asdict(FunctionalUnitLatencies())


def _program_statistics(
    programs: Iterable[str] | None, scale: str, engine: ExperimentEngine
) -> dict[str, TraceStatistics]:
    """Tables 2 and 3's counts, read off the reference machine at latency 50.

    Every run counts its trace's instructions, operations and traffic
    through one rule (:mod:`repro.trace.stats`), and the reference machine
    eliminates no load, so its counts are the trace's own.  Figures 5-8
    and Table 4 simulate the same point, so the tables cost a warm run no
    trace at all.
    """
    names = _programs(programs)
    ref = reference_config(DEFAULT_LATENCY)
    grid = _Grid("tables2-3", names, (ref,), scale, engine)
    return {name: TraceStatistics.from_stats(name, grid(name, ref).stats) for name in names}


def table2_program_statistics(
    programs: Iterable[str] | None = None,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, TraceStatistics]:
    """Table 2: instruction counts, %vectorisation and average vector length."""
    return _program_statistics(programs, scale, engine)


def table3_spill_statistics(
    programs: Iterable[str] | None = None,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, int]]:
    """Table 3: vector memory operations split into ordinary and spill traffic."""
    return {
        name: {
            "vector_load_ops": stats.vector_load_ops,
            "vector_load_spill_ops": stats.vector_load_spill_ops,
            "vector_store_ops": stats.vector_store_ops,
            "vector_store_spill_ops": stats.vector_store_spill_ops,
            "scalar_load_spill_ops": stats.scalar_load_spill_ops,
            "scalar_store_spill_ops": stats.scalar_store_spill_ops,
        }
        for name, stats in _program_statistics(programs, scale, engine).items()
    }


# ---------------------------------------------------------------------------
# Reference-architecture studies (Figures 3 and 4)
# ---------------------------------------------------------------------------


def figure3_reference_state_breakdown(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = REFERENCE_LATENCY_SWEEP,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[int, dict[tuple[bool, bool, bool], int]]]:
    """Figure 3: (FU2, FU1, MEM) state breakdown of the reference machine.

    The paper shows the two representative programs hydro2d and dyfesm; by
    default this does the same, but any subset can be requested.
    """
    selected = tuple(programs) if programs is not None else FIGURE3_PROGRAMS
    configs = {latency: reference_config(latency) for latency in latencies}
    grid = _Grid("figure3", selected, tuple(configs.values()), scale, engine)
    return {
        name: {
            latency: grid(name, config).stats.state_breakdown()
            for latency, config in configs.items()
        }
        for name in selected
    }


def figure4_reference_port_idle(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = REFERENCE_LATENCY_SWEEP,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[int, float]]:
    """Figure 4: % cycles the memory port is idle on the reference machine."""
    names = _programs(programs)
    configs = {latency: reference_config(latency) for latency in latencies}
    grid = _Grid("figure4", names, tuple(configs.values()), scale, engine)
    return {
        name: {
            latency: grid(name, config).stats.memory_port_idle_fraction()
            for latency, config in configs.items()
        }
        for name in names
    }


# ---------------------------------------------------------------------------
# OOOVA performance (Figures 5, 6, 7, 8)
# ---------------------------------------------------------------------------


def figure5_speedup_vs_registers(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, Mapping]]:
    """Figure 5: OOOVA speedup over the reference machine vs physical registers.

    Returns, per program, the speedup curves of the 16-slot-queue and
    128-slot-queue machines plus the IDEAL upper bound.
    """
    names = _programs(programs)
    ref = reference_config(latency)
    ooo_grid = {
        (regs, slots): ooo_config(phys_vregs=regs, latency=latency, queue_slots=slots)
        for regs in register_counts
        for slots in (16, 128)
    }
    grid = _Grid("figure5", names, (ref, *ooo_grid.values()), scale, engine)
    results: dict[str, dict[str, Mapping]] = {}
    for name in names:
        reference = grid(name, ref)
        ideal_cycles = reference.stats.ideal_cycles()
        curves: dict[str, dict[int, float]] = {"OOOVA-16": {}, "OOOVA-128": {}}
        for regs in register_counts:
            for label, slots in (("OOOVA-16", 16), ("OOOVA-128", 128)):
                result = grid(name, ooo_grid[(regs, slots)])
                curves[label][regs] = result.speedup_over(reference)
        results[name] = {
            "curves": curves,
            "ideal": reference.cycles / ideal_cycles if ideal_cycles else float("inf"),
        }
    return results


def figure6_port_idle_comparison(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, float]]:
    """Figure 6: memory-port idle fraction, reference versus OOOVA."""
    names = _programs(programs)
    ref = reference_config(latency)
    ooo = ooo_config(phys_vregs=phys_vregs, latency=latency)
    grid = _Grid("figure6", names, (ref, ooo), scale, engine)
    return {
        name: {
            "REF": grid(name, ref).stats.memory_port_idle_fraction(),
            "OOOVA": grid(name, ooo).stats.memory_port_idle_fraction(),
        }
        for name in names
    }


def figure7_state_breakdown_comparison(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, dict[tuple[bool, bool, bool], int]]]:
    """Figure 7: execution-state breakdown, reference versus OOOVA."""
    names = _programs(programs)
    ref = reference_config(latency)
    ooo = ooo_config(phys_vregs=phys_vregs, latency=latency)
    grid = _Grid("figure7", names, (ref, ooo), scale, engine)
    return {
        name: {
            "REF": grid(name, ref).stats.state_breakdown(),
            "OOOVA": grid(name, ooo).stats.state_breakdown(),
        }
        for name in names
    }


def figure8_latency_tolerance(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = LATENCY_SWEEP,
    phys_vregs: int = 16,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, dict[int, int]]]:
    """Figure 8: execution time versus main-memory latency (REF, OOOVA, IDEAL)."""
    names = _programs(programs)
    ref_configs = {latency: reference_config(latency) for latency in latencies}
    ooo_configs = {
        latency: ooo_config(phys_vregs=phys_vregs, latency=latency) for latency in latencies
    }
    grid = _Grid(
        "figure8", names, (*ref_configs.values(), *ooo_configs.values()), scale, engine
    )
    results: dict[str, dict[str, dict[int, int]]] = {}
    for name in names:
        ref_curve: dict[int, int] = {}
        ooo_curve: dict[int, int] = {}
        ideal_curve: dict[int, int] = {}
        for latency in latencies:
            reference = grid(name, ref_configs[latency])
            ref_curve[latency] = reference.cycles
            ooo_curve[latency] = grid(name, ooo_configs[latency]).cycles
            ideal_curve[latency] = reference.stats.ideal_cycles()
        results[name] = {"REF": ref_curve, "OOOVA": ooo_curve, "IDEAL": ideal_curve}
    return results


# ---------------------------------------------------------------------------
# Machine comparison across the registry (Table 4)
# ---------------------------------------------------------------------------


def table4_machine_comparison(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, Mapping]]:
    """Table 4: the three registered machine organisations, side by side.

    For every program: cycles, speedup over the reference machine and
    memory-port idle fraction on the in-order reference machine, the
    in-order-issue + renaming intermediate (``inorder``, registered through
    the machine-model registry) and the out-of-order OOOVA, all at the same
    memory latency and (where applicable) the same register/queue
    resources.  The ``inorder`` column separates how much of the OOOVA's
    win comes from renaming alone and how much needs out-of-order issue.
    """
    names = _programs(programs)
    configs = {
        "REF": reference_config(latency),
        "INORDER": inorder_config(phys_vregs=phys_vregs, latency=latency),
        "OOOVA": ooo_config(phys_vregs=phys_vregs, latency=latency),
    }
    grid = _Grid("table4", names, tuple(configs.values()), scale, engine)
    results: dict[str, dict[str, Mapping]] = {}
    for name in names:
        reference = grid(name, configs["REF"])
        cycles = {label: grid(name, config).cycles for label, config in configs.items()}
        results[name] = {
            "cycles": cycles,
            "speedup": {
                label: grid(name, config).speedup_over(reference)
                for label, config in configs.items()
                if label != "REF"
            },
            "port_idle": {
                label: grid(name, config).stats.memory_port_idle_fraction()
                for label, config in configs.items()
            },
        }
    return results


# ---------------------------------------------------------------------------
# Lost decode cycles (Figure 10)
# ---------------------------------------------------------------------------


def lost_decode_row(stats) -> dict[str, object]:
    """One Figure 10 row: stall-cycle breakdown plus the lost percentage.

    Split out from :func:`figure10_lost_decode_cycles` so regression tests
    can pin hand-derived values on a built trace without running a grid.
    """
    breakdown = stats.lost_decode_cycles()
    return {
        "cycles": stats.cycles,
        "rename": breakdown["rename"],
        "rob": breakdown["rob"],
        "queue": breakdown["queue"],
        "lost_percent": 100.0 * stats.lost_decode_fraction(),
    }


def figure10_lost_decode_cycles(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[int, dict[str, object]]]:
    """Figure 10: decode cycles lost to rename/ROB/queue stalls.

    Uses the same early-commit OOOVA configurations as Figure 5's
    16-slot-queue curve, so with a warm store this exhibit costs no new
    simulations: pressure on the rename free lists falls (and the lost
    fraction with it) as physical registers are added.
    """
    names = _programs(programs)
    configs = {
        regs: ooo_config(phys_vregs=regs, latency=latency) for regs in register_counts
    }
    grid = _Grid("figure10", names, tuple(configs.values()), scale, engine)
    return {
        name: {
            regs: lost_decode_row(grid(name, config).stats)
            for regs, config in configs.items()
        }
        for name in names
    }


# ---------------------------------------------------------------------------
# Precise traps (Figure 9)
# ---------------------------------------------------------------------------


def figure9_commit_models(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, dict[int, float]]]:
    """Figure 9: speedup over the reference machine, early versus late commit."""
    names = _programs(programs)
    ref = reference_config(latency)
    early_configs = {
        regs: ooo_config(phys_vregs=regs, latency=latency) for regs in register_counts
    }
    late_configs = {
        regs: ooo_config(phys_vregs=regs, latency=latency, commit_model=CommitModel.LATE)
        for regs in register_counts
    }
    grid = _Grid(
        "figure9", names, (ref, *early_configs.values(), *late_configs.values()), scale, engine
    )
    results: dict[str, dict[str, dict[int, float]]] = {}
    for name in names:
        reference = grid(name, ref)
        results[name] = {
            "early": {
                regs: grid(name, config).speedup_over(reference)
                for regs, config in early_configs.items()
            },
            "late": {
                regs: grid(name, config).speedup_over(reference)
                for regs, config in late_configs.items()
            },
        }
    return results


# ---------------------------------------------------------------------------
# Dynamic load elimination (Figures 11, 12, 13)
# ---------------------------------------------------------------------------


def _load_elimination_speedups(
    grid_name: str,
    elimination: LoadElimination,
    programs: Iterable[str] | None,
    register_counts: Sequence[int],
    latency: int,
    scale: str,
    engine: ExperimentEngine,
) -> dict[str, dict[int, float]]:
    names = _programs(programs)
    baselines = {
        regs: ooo_config(phys_vregs=regs, latency=latency, commit_model=CommitModel.LATE)
        for regs in register_counts
    }
    improved = {
        regs: ooo_config(
            phys_vregs=regs,
            latency=latency,
            commit_model=CommitModel.LATE,
            load_elimination=elimination,
        )
        for regs in register_counts
    }
    grid = _Grid(grid_name, names, (*baselines.values(), *improved.values()), scale, engine)
    return {
        name: {
            regs: grid(name, improved[regs]).speedup_over(grid(name, baselines[regs]))
            for regs in register_counts
        }
        for name in names
    }


def figure11_sle_speedup(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = LOAD_ELIMINATION_REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[int, float]]:
    """Figure 11: speedup of scalar load elimination over the late-commit OOOVA."""
    return _load_elimination_speedups(
        "figure11", LoadElimination.SLE, programs, register_counts, latency, scale, engine
    )


def figure12_sle_vle_speedup(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = LOAD_ELIMINATION_REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[int, float]]:
    """Figure 12: speedup of scalar+vector load elimination over the baseline."""
    return _load_elimination_speedups(
        "figure12", LoadElimination.SLE_VLE, programs, register_counts, latency, scale, engine
    )


def figure13_traffic_reduction(
    programs: Iterable[str] | None = None,
    phys_vregs: int = 32,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    *,
    engine: ExperimentEngine,
) -> dict[str, dict[str, float]]:
    """Figure 13: memory-traffic reduction of SLE and SLE+VLE at 32 registers.

    The ratio follows Section 6.4: requests issued by the baseline OOOVA
    divided by requests issued by the load-eliminating configuration.
    """
    names = _programs(programs)
    baseline = ooo_config(phys_vregs=phys_vregs, latency=latency, commit_model=CommitModel.LATE)
    eliminating = {
        label: ooo_config(
            phys_vregs=phys_vregs,
            latency=latency,
            commit_model=CommitModel.LATE,
            load_elimination=elimination,
        )
        for label, elimination in (("SLE", LoadElimination.SLE),
                                   ("SLE+VLE", LoadElimination.SLE_VLE))
    }
    grid = _Grid("figure13", names, (baseline, *eliminating.values()), scale, engine)
    return {
        name: {
            label: grid(name, config).traffic_reduction_over(grid(name, baseline))
            for label, config in eliminating.items()
        }
        for name in names
    }

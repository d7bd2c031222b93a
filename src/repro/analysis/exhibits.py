"""Registry of the paper's exhibits: run + render every table and figure.

Each :class:`Exhibit` pairs one ``table*``/``figure*`` experiment function
with the matching ASCII report formatter, so the command line
(``python -m repro.cli run-all``) and any other driver can produce the
paper's whole evaluation from a single list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.report import (
    format_table,
    report_latency_tolerance,
    report_lost_decode,
    report_machine_comparison,
    report_port_idle,
    report_simple_curves,
    report_speedup_curves,
    report_state_breakdown,
    report_table2,
    report_table3,
    report_traffic_reduction,
)
from repro.core import experiments
from repro.core.config import LATENCY_SWEEP, REFERENCE_LATENCY_SWEEP, REGISTER_SWEEP
from repro.core.experiments import LOAD_ELIMINATION_REGISTER_SWEEP
from repro.core.runner import ExperimentEngine


@dataclass(frozen=True)
class Exhibit:
    """One table or figure of the paper: how to compute and print it."""

    name: str
    title: str
    #: (programs, scale, engine) -> exhibit data
    run: Callable[[Iterable[str] | None, str, ExperimentEngine], object]
    #: exhibit data -> ASCII report
    render: Callable[[object], str]


def _render_table1(latencies: dict) -> str:
    return format_table(["unit / operation", "latency"], sorted(latencies.items()),
                        title="Table 1: functional unit latencies (cycles)")


def _render_figure9(results: dict) -> str:
    rows = []
    for program, curves in results.items():
        for label in ("early", "late"):
            rows.append([program, label]
                        + [curves[label].get(r, "") for r in REGISTER_SWEEP])
    return format_table(["program", "commit"] + [str(r) for r in REGISTER_SWEEP], rows,
                        title="Figure 9: speedup over REF, early vs late commit")


EXHIBITS: tuple[Exhibit, ...] = (
    Exhibit(
        "table1", "Table 1: functional-unit latencies",
        lambda programs, scale, engine: experiments.table1_functional_unit_latencies(),
        _render_table1,
    ),
    Exhibit(
        "table2", "Table 2: basic operation counts",
        lambda programs, scale, engine: experiments.table2_program_statistics(
            programs, scale, engine=engine),
        report_table2,
    ),
    Exhibit(
        "table3", "Table 3: vector memory spill operations",
        lambda programs, scale, engine: experiments.table3_spill_statistics(
            programs, scale, engine=engine),
        report_table3,
    ),
    Exhibit(
        "figure3", "Figure 3: reference-machine state breakdown",
        lambda programs, scale, engine: experiments.figure3_reference_state_breakdown(
            programs, scale=scale, engine=engine),
        report_state_breakdown,
    ),
    Exhibit(
        "figure4", "Figure 4: reference-machine memory-port idle time",
        lambda programs, scale, engine: experiments.figure4_reference_port_idle(
            programs, scale=scale, engine=engine),
        lambda data: report_port_idle(
            data, f"Figure 4 (latencies {REFERENCE_LATENCY_SWEEP})"),
    ),
    Exhibit(
        "figure5", "Figure 5: OOOVA speedup vs physical registers",
        lambda programs, scale, engine: experiments.figure5_speedup_vs_registers(
            programs, scale=scale, engine=engine),
        lambda data: report_speedup_curves(data, REGISTER_SWEEP),
    ),
    Exhibit(
        "figure6", "Figure 6: memory-port idle time, REF vs OOOVA",
        lambda programs, scale, engine: experiments.figure6_port_idle_comparison(
            programs, scale=scale, engine=engine),
        lambda data: report_port_idle(data, "Figure 6"),
    ),
    Exhibit(
        "figure7", "Figure 7: state breakdown, REF vs OOOVA",
        lambda programs, scale, engine: experiments.figure7_state_breakdown_comparison(
            programs, scale=scale, engine=engine),
        report_state_breakdown,
    ),
    Exhibit(
        "figure8", "Figure 8: execution time vs memory latency",
        lambda programs, scale, engine: experiments.figure8_latency_tolerance(
            programs, scale=scale, engine=engine),
        lambda data: report_latency_tolerance(data, LATENCY_SWEEP),
    ),
    Exhibit(
        "figure9", "Figure 9: early vs late (precise-trap) commit",
        lambda programs, scale, engine: experiments.figure9_commit_models(
            programs, scale=scale, engine=engine),
        _render_figure9,
    ),
    Exhibit(
        "figure10", "Figure 10: lost decode cycles",
        lambda programs, scale, engine: experiments.figure10_lost_decode_cycles(
            programs, scale=scale, engine=engine),
        report_lost_decode,
    ),
    Exhibit(
        "figure11", "Figure 11: scalar load elimination speedup",
        lambda programs, scale, engine: experiments.figure11_sle_speedup(
            programs, scale=scale, engine=engine),
        lambda data: report_simple_curves(
            data, LOAD_ELIMINATION_REGISTER_SWEEP,
            "Figure 11: SLE speedup over late-commit OOOVA"),
    ),
    Exhibit(
        "figure12", "Figure 12: scalar+vector load elimination speedup",
        lambda programs, scale, engine: experiments.figure12_sle_vle_speedup(
            programs, scale=scale, engine=engine),
        lambda data: report_simple_curves(
            data, LOAD_ELIMINATION_REGISTER_SWEEP,
            "Figure 12: SLE+VLE speedup over late-commit OOOVA"),
    ),
    Exhibit(
        "figure13", "Figure 13: memory-traffic reduction",
        lambda programs, scale, engine: experiments.figure13_traffic_reduction(
            programs, scale=scale, engine=engine),
        report_traffic_reduction,
    ),
    Exhibit(
        "table4", "Table 4: machine comparison across the registry",
        lambda programs, scale, engine: experiments.table4_machine_comparison(
            programs, scale=scale, engine=engine),
        report_machine_comparison,
    ),
)

EXHIBIT_NAMES: tuple[str, ...] = tuple(ex.name for ex in EXHIBITS)


def get_exhibits(names: Iterable[str] | None = None) -> tuple[Exhibit, ...]:
    """Return the selected exhibits (all of them by default), in paper order."""
    if names is None:
        return EXHIBITS
    by_name = {ex.name: ex for ex in EXHIBITS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise KeyError(
            f"unknown exhibit(s) {', '.join(unknown)}; available: {', '.join(EXHIBIT_NAMES)}"
        )
    return tuple(by_name[name] for name in EXHIBIT_NAMES if name in set(names))

"""Simulation statistics containers.

Both simulators populate a :class:`SimStats` object.  The analysis layer
(`repro.analysis`) and the experiment harness (`repro.core.experiments`)
consume these objects to build the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.common.intervals import BusyTracker, state_breakdown

#: The three vector units whose joint state is reported in Figures 3 and 7,
#: in the order used by the paper's 3-tuples: (FU2, FU1, MEM).
VECTOR_UNIT_ORDER = ("FU2", "FU1", "MEM")


@dataclass
class MemoryTraffic:
    """Counts of memory transactions observed on the address bus.

    Counts are in *operations* (one element transferred = one operation),
    matching the paper's Table 3 which counts words moved.
    """

    vector_load_ops: int = 0
    vector_store_ops: int = 0
    scalar_load_ops: int = 0
    scalar_store_ops: int = 0
    #: subset of the above caused by register-spill code
    vector_load_spill_ops: int = 0
    vector_store_spill_ops: int = 0
    scalar_load_spill_ops: int = 0
    scalar_store_spill_ops: int = 0
    #: operations removed by dynamic load elimination (never reach memory)
    eliminated_vector_load_ops: int = 0
    eliminated_scalar_load_ops: int = 0

    @property
    def total_ops(self) -> int:
        """Total operations that actually reached the address bus."""
        return (
            self.vector_load_ops
            + self.vector_store_ops
            + self.scalar_load_ops
            + self.scalar_store_ops
        )

    @property
    def total_eliminated_ops(self) -> int:
        return self.eliminated_vector_load_ops + self.eliminated_scalar_load_ops

    @property
    def spill_ops(self) -> int:
        return (
            self.vector_load_spill_ops
            + self.vector_store_spill_ops
            + self.scalar_load_spill_ops
            + self.scalar_store_spill_ops
        )


@dataclass
class SimStats:
    """Everything a single simulation run reports."""

    #: total execution time in cycles
    cycles: int = 0
    #: dynamic instructions processed, split by class
    scalar_instructions: int = 0
    vector_instructions: int = 0
    branch_instructions: int = 0
    #: total element operations performed by vector instructions
    vector_operations: int = 0

    #: busy intervals of the three vector units and of the memory address port
    unit_busy: dict[str, BusyTracker] = field(
        default_factory=lambda: {name: BusyTracker(name) for name in VECTOR_UNIT_ORDER}
    )
    address_port_busy_cycles: int = 0

    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)

    #: OOOVA-only counters (left at zero by the reference simulator)
    branch_mispredictions: int = 0
    branches_predicted: int = 0
    rename_stall_cycles: int = 0
    rob_stall_cycles: int = 0
    queue_stall_cycles: int = 0
    loads_eliminated: int = 0
    scalar_loads_eliminated: int = 0
    stores_executed_at_head: int = 0

    def record_unit_busy(self, unit: str, start: int, end: int) -> None:
        """Record that vector unit ``unit`` was busy during ``[start, end)``."""
        self.unit_busy[unit].add(start, end)

    def unit_busy_cycles(self, unit: str) -> int:
        return self.unit_busy[unit].busy_cycles()

    def memory_port_idle_cycles(self) -> int:
        """Cycles during which the memory address port issued no request."""
        return max(0, self.cycles - self.address_port_busy_cycles)

    def memory_port_idle_fraction(self) -> float:
        """Fraction of total execution time the address port was idle (Fig. 4/6)."""
        if self.cycles == 0:
            return 0.0
        return self.memory_port_idle_cycles() / self.cycles

    def state_breakdown(self) -> dict[tuple[bool, bool, bool], int]:
        """Cycle counts per (FU2, FU1, MEM) busy-state tuple (Figures 3 and 7)."""
        trackers = [self.unit_busy[name] for name in VECTOR_UNIT_ORDER]
        raw = state_breakdown(trackers, self.cycles)
        return {(k[0], k[1], k[2]): v for k, v in raw.items()}

    def ideal_cycles(self) -> int:
        """The IDEAL lower bound used in Figure 5.

        The paper computes the ideal execution time as the number of cycles
        consumed by the most heavily used vector unit, i.e. performance
        limited only by the most saturated resource with all dependences
        removed.
        """
        return max(
            (self.unit_busy[name].busy_cycles() for name in VECTOR_UNIT_ORDER),
            default=0,
        )

    def lost_decode_cycles(self) -> dict[str, int]:
        """Decode cycles lost to each front-end stall source (Figure 10).

        The paper attributes every cycle the decode stage spends blocked to
        the structural resource that caused it: no free physical register
        (rename), a full reorder buffer (rob) or a full issue queue (queue).
        """
        return {
            "rename": self.rename_stall_cycles,
            "rob": self.rob_stall_cycles,
            "queue": self.queue_stall_cycles,
        }

    def lost_decode_fraction(self) -> float:
        """Fraction of total execution time lost to decode stalls."""
        if self.cycles == 0:
            return 0.0
        return sum(self.lost_decode_cycles().values()) / self.cycles

    def vectorization_percent(self) -> float:
        """Percentage of operations performed by vector instructions (Table 2)."""
        denom = self.scalar_instructions + self.branch_instructions + self.vector_operations
        if denom == 0:
            return 0.0
        return 100.0 * self.vector_operations / denom

    def average_vector_length(self) -> float:
        """Average number of elements per vector instruction (Table 2)."""
        if self.vector_instructions == 0:
            return 0.0
        return self.vector_operations / self.vector_instructions

    def copy(self) -> "SimStats":
        """Return an independent copy (cheaply; no ``deepcopy``).

        Counters are plain values, busy trackers share their immutable
        intervals behind fresh lists, and the traffic record is rebuilt, so
        mutating the copy can never affect the original.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["unit_busy"] = {
            name: tracker.copy() for name, tracker in self.unit_busy.items()
        }
        data["traffic"] = replace(self.traffic)
        return SimStats(**data)

    # -- serialisation (persistent result store) ----------------------------

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary.

        Busy trackers are stored as merged ``[start, end]`` interval pairs,
        which preserves every derived statistic (busy cycles, state
        breakdowns, idle fractions).
        """
        payload: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "unit_busy":
                value = {name: tracker.to_pairs() for name, tracker in value.items()}
            elif f.name == "traffic":
                value = {sub.name: getattr(value, sub.name) for sub in fields(value)}
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SimStats":
        """Rebuild a :class:`SimStats` from :meth:`to_dict` output."""
        data = dict(payload)
        data["unit_busy"] = {
            name: BusyTracker.from_pairs(name, pairs)
            for name, pairs in data.get("unit_busy", {}).items()
        }
        data["traffic"] = MemoryTraffic(**data.get("traffic", {}))
        return cls(**data)


def speedup(reference: SimStats, improved: SimStats) -> float:
    """Speedup of ``improved`` over ``reference`` (ratio of cycle counts)."""
    if improved.cycles == 0:
        raise ValueError("improved run reports zero cycles")
    return reference.cycles / improved.cycles


def traffic_reduction(baseline: SimStats, optimised: SimStats) -> float:
    """Traffic-reduction ratio used in Figure 13.

    Defined in Section 6.4 as the total number of requests sent over the
    address bus by the baseline divided by the total number of requests sent
    by the optimised configuration.
    """
    optimised_ops = optimised.traffic.total_ops
    if optimised_ops == 0:
        raise ValueError("optimised run performed no memory operations")
    return baseline.traffic.total_ops / optimised_ops


def format_state(state: tuple[bool, bool, bool]) -> str:
    """Render a (FU2, FU1, MEM) state tuple the way the paper prints it."""
    names = [name if busy else "" for name, busy in zip(VECTOR_UNIT_ORDER, state, strict=True)]
    return "<" + ",".join(names) + ">"


def state_histogram_table(breakdown: Mapping[tuple[bool, bool, bool], int]) -> str:
    """Render a state breakdown as an aligned ASCII table."""
    lines = ["state              cycles"]
    for state in sorted(breakdown, reverse=True):
        lines.append(f"{format_state(state):<18} {breakdown[state]:>10}")
    return "\n".join(lines)

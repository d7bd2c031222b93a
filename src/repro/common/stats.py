"""Simulation statistics containers.

Every machine's ``finalise`` returns a :class:`SimStats`: plain integer
counters, each vector unit's busy cycles and the cycle count of every joint
(FU2, FU1, MEM) busy state.  The machines keep each unit's busy time to
themselves, as a :class:`~repro.common.intervals.BusyCalendar`, and reduce
the three calendars to those two aggregates once, in ``finalise``
(:meth:`SimStats.record_unit_activity`), so a result is a few dozen
integers however long the run: copying, serialising and validating one is a
flat walk over its fields.  The analysis layer (`repro.analysis`) and the
experiment harness (`repro.core.experiments`) consume these objects to
build the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping

from repro.common.errors import SimulationError
from repro.common.intervals import BusyCalendar, unit_activity

#: The three vector units whose joint state is reported in Figures 3 and 7,
#: in the order used by the paper's 3-tuples: (FU2, FU1, MEM).
VECTOR_UNIT_ORDER = ("FU2", "FU1", "MEM")

#: a (FU2, FU1, MEM) busy-flag tuple
UnitState = tuple[bool, bool, bool]


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

    def eliminate_load(self, vector: bool, ops: int, spill: bool) -> None:
        """Move an eliminated load's ``ops``, spill share included, off the bus.

        A run counts every load of its trace as bus traffic before it
        steps (:meth:`SimStats.add_counts`); a load it eliminates never
        reaches memory.
        """
        if vector:
            self.vector_load_ops -= ops
            self.vector_load_spill_ops -= ops if spill else 0
            self.eliminated_vector_load_ops += ops
        else:
            self.scalar_load_ops -= ops
            self.scalar_load_spill_ops -= ops if spill else 0
            self.eliminated_scalar_load_ops += ops

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

    #: distinct busy cycles of each vector unit, keyed in VECTOR_UNIT_ORDER
    unit_busy: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(VECTOR_UNIT_ORDER, 0)
    )
    #: cycles spent in each (FU2, FU1, MEM) busy state over ``[0, cycles)``:
    #: only states that occur, in order of first occurrence (Figures 3 and 7)
    unit_states: dict[UnitState, int] = field(default_factory=dict)
    address_port_busy_cycles: int = 0

    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)

    #: OOOVA-only counters (left at zero by the reference simulator)
    branch_mispredictions: int = 0
    rename_stall_cycles: int = 0
    rob_stall_cycles: int = 0
    queue_stall_cycles: int = 0
    loads_eliminated: int = 0

    def add_counts(self, counts: SimStats) -> None:
        """Add a slice's counts, which its instructions alone decide.

        ``counts`` holds the slice's instruction classes, vector operations
        and bus traffic (:func:`repro.trace.stats.count_instructions` or
        :attr:`repro.machine.batched.LoweredTrace.counts`); a machine adds
        them before it steps the slice and counts none of them itself.
        """
        for name in _COUNTED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(counts, name))
        for name in _TRAFFIC_FIELDS:
            setattr(self.traffic, name, getattr(self.traffic, name) + getattr(counts.traffic, name))

    def record_unit_activity(
        self, fu2: BusyCalendar, fu1: BusyCalendar, mem: BusyCalendar
    ) -> None:
        """Set :attr:`unit_busy` and :attr:`unit_states` from the units' busy
        calendars (a gap resource is one too).

        Machines call this from ``finalise``, after setting :attr:`cycles`.
        """
        busy, states = unit_activity((fu2, fu1, mem), self.cycles)
        self.unit_busy = dict(zip(VECTOR_UNIT_ORDER, busy, strict=True))
        self.unit_states = states

    def unit_busy_cycles(self, unit: str) -> int:
        return self.unit_busy[unit]

    def memory_port_idle_cycles(self) -> int:
        """Cycles during which the memory address port issued no request."""
        return max(0, self.cycles - self.address_port_busy_cycles)

    def memory_port_idle_fraction(self) -> float:
        """Fraction of total execution time the address port was idle (Fig. 4/6)."""
        if self.cycles == 0:
            return 0.0
        return self.memory_port_idle_cycles() / self.cycles

    def state_breakdown(self) -> dict[UnitState, int]:
        """Cycle counts per (FU2, FU1, MEM) busy-state tuple (Figures 3 and 7)."""
        return dict(self.unit_states)

    def ideal_cycles(self) -> int:
        """The IDEAL lower bound used in Figure 5.

        The paper computes the ideal execution time as the number of cycles
        consumed by the most heavily used vector unit, i.e. performance
        limited only by the most saturated resource with all dependences
        removed.
        """
        return max(self.unit_busy.values(), default=0)

    def lost_decode_cycles(self) -> dict[str, int]:
        """Decode cycles lost to each front-end stall source (Figure 10).

        The paper attributes every cycle the decode stage spends blocked to
        the structural resource that caused it: no free physical register
        (rename), a full reorder buffer (rob) or a full issue queue (queue).
        Under vector load elimination a vector destination is renamed late,
        in the memory pipeline; that wait does not block decode and is not
        counted.
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
        """Return an independent copy: every field is a value or a flat map."""
        return replace(
            self,
            unit_busy=dict(self.unit_busy),
            unit_states=dict(self.unit_states),
            traffic=replace(self.traffic),
        )

    # -- serialisation (persistent result store) ----------------------------

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary.

        The state counts become ``[[fu2, fu1, mem], cycles]`` pairs, which
        keep their order through JSON (a JSON object could not have tuple
        keys, and a re-sorting writer would reorder it).
        """
        payload = asdict(self)
        payload["unit_states"] = [
            [list(state), count] for state, count in self.unit_states.items()
        ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SimStats":
        """Rebuild a :class:`SimStats` from :meth:`to_dict` output.

        Raises ``ValueError`` unless ``payload`` has exactly :meth:`to_dict`'s
        fields and every counter in it — the traffic counters, busy totals
        and state counts included — is a non-negative ``int`` (not a
        ``bool``).  The state counts need not sum to :attr:`cycles`: a
        machine that records no unit activity reports none.
        """
        _require_keys(payload, _STATS_FIELDS, "stats")
        data: dict = {
            name: _counter(payload[name], name)
            for name in _STATS_FIELDS
            if name not in ("unit_busy", "unit_states", "traffic")
        }
        busy = payload["unit_busy"]
        _require_keys(busy, VECTOR_UNIT_ORDER, "unit_busy")
        data["unit_busy"] = {
            name: _counter(busy[name], f"unit_busy.{name}") for name in VECTOR_UNIT_ORDER
        }
        data["unit_states"] = _state_counts(payload["unit_states"])
        traffic = payload["traffic"]
        _require_keys(traffic, _TRAFFIC_FIELDS, "traffic")
        data["traffic"] = MemoryTraffic(
            **{name: _counter(traffic[name], f"traffic.{name}") for name in _TRAFFIC_FIELDS}
        )
        return cls(**data)


def check_invariants(stats: SimStats) -> None:
    """Raise :class:`SimulationError` naming the first bound ``stats`` breaks.

    Every result of a built-in machine keeps these bounds, on any stream:
    a unit is busy at most every cycle, and its busy cycles are those of
    the joint states in which it is busy, which sum to ``cycles``; the bus
    is busy at least once per operation it carried and at most every
    cycle; decode waits for the ROB, then the queue, then the free list,
    one after another, so the three waits sum to at most ``cycles``; no
    more branches are mispredicted than run; and a spill share is part
    of its traffic (an eliminated load's included).  A third-party model
    is not held to them: one that reports no unit activity has no joint
    states to sum.
    """
    cycles = stats.cycles
    traffic = stats.traffic
    states = stats.unit_states
    busy = stats.unit_busy
    stalls = stats.rob_stall_cycles + stats.queue_stall_cycles + stats.rename_stall_cycles
    at_most = [
        *((f"unit_busy[{unit}] <= cycles", busy[unit], cycles) for unit in VECTOR_UNIT_ORDER),
        ("traffic.total_ops <= address_port_busy_cycles",
         traffic.total_ops, stats.address_port_busy_cycles),
        ("address_port_busy_cycles <= cycles", stats.address_port_busy_cycles, cycles),
        ("rob_stall_cycles + queue_stall_cycles + rename_stall_cycles <= cycles",
         stalls, cycles),
        ("branch_mispredictions <= branch_instructions",
         stats.branch_mispredictions, stats.branch_instructions),
        ("traffic.vector_load_spill_ops <= vector load ops, eliminated ones included",
         traffic.vector_load_spill_ops,
         traffic.vector_load_ops + traffic.eliminated_vector_load_ops),
        ("traffic.scalar_load_spill_ops <= scalar load ops, eliminated ones included",
         traffic.scalar_load_spill_ops,
         traffic.scalar_load_ops + traffic.eliminated_scalar_load_ops),
        ("traffic.vector_store_spill_ops <= traffic.vector_store_ops",
         traffic.vector_store_spill_ops, traffic.vector_store_ops),
        ("traffic.scalar_store_spill_ops <= traffic.scalar_store_ops",
         traffic.scalar_store_spill_ops, traffic.scalar_store_ops),
    ]
    equal = [
        ("sum(unit_states) == cycles", sum(states.values()), cycles),
        *((f"unit_busy[{unit}] == cycles of the states with {unit} busy", busy[unit],
           sum(count for state, count in states.items() if state[position]))
          for position, unit in enumerate(VECTOR_UNIT_ORDER)),
    ]
    for bound, value, limit in at_most:
        if value > limit:
            raise SimulationError(f"simulated result breaks {bound}: {value} > {limit}")
    for bound, value, limit in equal:
        if value != limit:
            raise SimulationError(f"simulated result breaks {bound}: {value} != {limit}")


_STATS_FIELDS = tuple(f.name for f in fields(SimStats))
_TRAFFIC_FIELDS = tuple(f.name for f in fields(MemoryTraffic))
#: the counters besides the traffic that a slice's instructions alone decide
_COUNTED_FIELDS = (
    "scalar_instructions", "vector_instructions", "branch_instructions", "vector_operations")


def _require_keys(mapping: object, expected: tuple[str, ...], what: str) -> None:
    if not isinstance(mapping, Mapping) or set(mapping) != set(expected):
        raise ValueError(f"{what} must be an object with exactly the fields {expected}")


def _counter(value: object, name: str) -> int:
    """``value`` if it is a non-negative ``int`` (``bool`` is not one)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, not {value!r}")
    return value


def _state_counts(pairs: object) -> dict[UnitState, int]:
    """Decode :meth:`SimStats.to_dict`'s ``[[fu2, fu1, mem], cycles]`` pairs."""
    if not isinstance(pairs, list):
        raise ValueError("unit_states must be a list of [state, cycles] pairs")
    counts: dict[UnitState, int] = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list)
                and len(pair[0]) == len(VECTOR_UNIT_ORDER)
                and all(type(flag) is bool for flag in pair[0])):
            raise ValueError(f"invalid unit state entry {pair!r}")
        state: UnitState = (pair[0][0], pair[0][1], pair[0][2])
        if state in counts:
            raise ValueError(f"unit state {pair[0]!r} listed twice")
        counts[state] = _counter(pair[1], "unit_states")
    return counts


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

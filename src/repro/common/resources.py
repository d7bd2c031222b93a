"""Schedulable hardware resources.

Both simulators express functional units, register-file ports and the memory
address bus as resources on which instructions reserve busy intervals.  The
out-of-order simulator needs *gap filling*: a younger instruction that is
ready early may claim a slot on a unit before an older, still-waiting
instruction uses it.  :class:`GapResource` provides exactly that — reserve
the earliest interval of a given length starting at or after a given cycle.
A gap resource is a :class:`~repro.common.intervals.BusyCalendar` on
which gaps can also be reserved, so its reservations are its busy record:
:meth:`~repro.common.intervals.BusyCalendar.busy_cycles` reads them.

:class:`PipelinedResource` models fully pipelined units that accept one new
operation per cycle (the scalar units): a reservation occupies a single
issue slot, not the whole latency.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.common.intervals import BusyCalendar


class GapResource(BusyCalendar):
    """A resource that can serve one operation at a time, with gap filling.

    Reservations are rows of the calendar, so it holds exactly their
    union.  :meth:`reserve` finds the earliest gap that fits.
    """

    def reserve(self, earliest: int, duration: int) -> int:
        """Reserve ``duration`` cycles starting no earlier than ``earliest``.

        Returns the start cycle of the reservation.  Zero-duration requests
        are legal and return ``earliest`` without reserving anything.
        """
        if duration < 0:
            raise ValueError("reservation duration must be non-negative")
        if duration == 0:
            return earliest

        start = self._find_start(earliest, duration)
        self.add(start, start + duration)
        return start

    def next_free(self, earliest: int, duration: int) -> int:
        """Return where :meth:`reserve` would place a request, without reserving."""
        if duration <= 0:
            return earliest
        return self._find_start(earliest, duration)

    def _find_start(self, earliest: int, duration: int) -> int:
        starts, ends = self._starts, self._ends
        idx = bisect_left(ends, earliest)
        if idx > 0:
            idx -= 1
        candidate = earliest
        for i in range(max(idx, 0), len(starts)):
            if starts[i] >= candidate + duration:
                break
            candidate = max(candidate, ends[i])
        return candidate


class PipelinedResource:
    """A fully pipelined unit accepting at most ``width`` new operations/cycle."""

    def __init__(self, name: str = "", width: int = 1) -> None:
        if width < 1:
            raise ValueError("pipelined resource width must be at least 1")
        self.name = name
        self.width = width
        self._slots: dict[int, int] = {}

    def reserve(self, earliest: int) -> int:
        """Claim an issue slot at or after ``earliest`` and return its cycle."""
        cycle = earliest
        while self._slots.get(cycle, 0) >= self.width:
            cycle += 1
        self._slots[cycle] = self._slots.get(cycle, 0) + 1
        return cycle


@dataclass
class InOrderPipe:
    """An in-order pipeline stage sequence processing one instruction per cycle.

    Used for the OOOVA memory pipeline (Issue/RF, Range, Dependence): entries
    enter in program order, advance one stage per cycle, and the exit time of
    instruction *i* is at least one cycle after the exit time of *i-1*.
    """

    depth: int = 3
    last_exit: int = field(default=-1)

    def advance(self, enter_time: int) -> int:
        """Return the cycle at which an instruction entering at ``enter_time``
        leaves the final stage."""
        exit_time = max(enter_time + self.depth, self.last_exit + 1)
        self.last_exit = exit_time
        return exit_time

"""Busy-interval bookkeeping.

The simulators avoid doing per-cycle accounting work for resources that are
busy for long stretches (a vector unit processing 128 elements, a memory
port streaming a vector load).  Instead each resource keeps its busy time
as a :class:`BusyCalendar`: half-open ``[start, end)`` rows, sorted,
disjoint and merged where they touch, so the calendar is the union of
every interval the resource was busy.  It is the one form of busy record.
A :class:`~repro.common.resources.GapResource` (the OOOVA's FU1 and FU2,
the address bus, the reference machine's register-file ports) is a
calendar on which gaps can also be reserved; the OOOVA's vector memory
unit (its share of the address bus) and the reference machine's three
vector units are plain calendars.  When the run ends, :func:`unit_activity`
reduces the vector units' calendars, in one sweep, to the two aggregates
the paper's exhibits read: each unit's busy cycles and the cycle count of
every joint busy state.  The calendars themselves never leave the machine.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence


class BusyCalendar:
    """When one resource was busy: sorted, disjoint, merged ``[start, end)`` rows.

    The rows live in two parallel lists, ``_starts`` and ``_ends``.  The
    batched steppers update them in place with the same merge rule as
    :meth:`add`; the spec calls :meth:`add`, which also checks that the
    new interval overlaps no row.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        """Record that the resource is busy during ``[start, end)``.

        The interval is merged with any row it touches.  Raises
        ``ValueError`` if ``end < start`` or if the interval overlaps a row
        already recorded; an empty interval records nothing.
        """
        if end < start:
            raise ValueError(f"busy interval end {end} precedes start {start}")
        if end == start:
            return
        starts, ends = self._starts, self._ends
        idx = bisect_left(starts, start)
        if (idx > 0 and ends[idx - 1] > start) or (idx < len(starts) and starts[idx] < end):
            raise ValueError(f"busy interval [{start}, {end}) overlaps a recorded one")
        if idx > 0 and ends[idx - 1] == start:
            ends[idx - 1] = end
            if idx < len(starts) and starts[idx] == end:
                ends[idx - 1] = ends[idx]
                del starts[idx]
                del ends[idx]
            return
        if idx < len(starts) and starts[idx] == end:
            starts[idx] = start
            return
        starts.insert(idx, start)
        ends.insert(idx, end)

    def busy_cycles(self) -> int:
        """The cycles covered by the calendar."""
        return sum(self._ends) - sum(self._starts)


def unit_activity(
    calendars: Sequence[BusyCalendar], total_cycles: int
) -> tuple[list[int], dict[tuple[bool, ...], int]]:
    """Busy cycles per unit and cycles per joint busy state, in one sweep.

    This is the computation behind Figures 3, 5, 7 and 8 of the paper.
    Returns ``(busy, states)``:

    * ``busy[i]`` counts the cycles ``calendars[i]`` covers (not clipped
      to ``total_cycles``); the busiest vector unit is the IDEAL bound of
      Figures 5 and 8;
    * ``states`` maps each tuple of busy flags (one per unit, in
      ``calendars`` order) to the cycles spent in it during
      ``[0, total_cycles)``.  Only states with a positive count appear, in
      order of first occurrence, so the counts sum to ``total_cycles``.

    The sweep relies on each calendar's rows being disjoint.
    """
    if total_cycles < 0:
        raise ValueError("total_cycles must be non-negative")
    width = len(calendars)
    busy: list[int] = []
    # (cycle, +bit / -bit) where a unit turns busy / idle inside the window
    events: list[tuple[int, int]] = []
    for position, calendar in enumerate(calendars):
        bit = 1 << (width - 1 - position)
        for start, end in zip(calendar._starts, calendar._ends, strict=True):
            if start < total_cycles and end > 0:
                events.append((max(start, 0), bit))
                if end < total_cycles:
                    events.append((end, -bit))
        busy.append(calendar.busy_cycles())
    events.sort()

    by_mask: dict[int, int] = {}
    mask = 0
    at = 0
    for cycle, delta in events:
        if cycle > at:
            by_mask[mask] = by_mask.get(mask, 0) + (cycle - at)
            at = cycle
        mask += delta
    if total_cycles > at:
        by_mask[mask] = by_mask.get(mask, 0) + (total_cycles - at)
    states = {
        tuple(bool(mask >> (width - 1 - position) & 1) for position in range(width)): count
        for mask, count in by_mask.items()
    }
    return busy, states

"""Busy-interval bookkeeping.

The simulators avoid doing per-cycle accounting work for resources that are
busy for long stretches (a vector unit processing 128 elements, a memory
port streaming a vector load).  Instead each resource keeps half-open
``[start, end)`` busy intervals on the running machine.  A
:class:`~repro.common.resources.GapResource` (the OOOVA's FU1 and FU2, the
address bus, the reference machine's register-file ports) keeps them in
its reservation calendar.  The resources that reserve no calendar keep a
:class:`BusyTracker`: the OOOVA's vector memory unit (its share of the
address bus) and the reference machine's three vector units.  When the run
ends, :func:`unit_activity` reduces the vector units' intervals, in one
sweep, to the two aggregates the paper's exhibits read: each unit's busy
cycles and the cycle count of every joint busy state.  The intervals
themselves never leave the machine.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Protocol, Sequence


class Interval(NamedTuple):
    """A half-open interval of cycles ``[start, end)``.

    A ``NamedTuple`` rather than a dataclass: the simulators construct
    intervals on resource-reservation hot paths, and tuple construction is an
    order of magnitude cheaper than a frozen dataclass.  Callers that accept
    untrusted endpoints (:meth:`BusyTracker.add`) validate before building.
    """

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping or adjacent intervals into a sorted, disjoint list."""
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged: list[Interval] = []
    for iv in ordered:
        if iv.length == 0:
            continue
        if merged and iv.start <= merged[-1].end:
            last = merged[-1]
            if iv.end > last.end:
                merged[-1] = Interval(last.start, iv.end)
        else:
            merged.append(iv)
    return merged


class BusyRecord(Protocol):
    """A resource's busy intervals, read as a sorted, disjoint list."""

    def merged(self) -> list[Interval]: ...


class BusyTracker:
    """Records busy intervals for one resource.

    The tracker accepts intervals in any order and merges them when read.
    Appending an interval that extends the most recently appended one is
    the common fast path for the simulators (resources tend to be reserved
    in roughly increasing time order).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._intervals: list[Interval] = []

    def add(self, start: int, end: int) -> None:
        """Record that the resource is busy during ``[start, end)``."""
        if end < start:
            raise ValueError(f"busy interval end {end} precedes start {start}")
        if end == start:
            return
        if self._intervals and self._intervals[-1].end >= start >= self._intervals[-1].start:
            last = self._intervals[-1]
            if end > last.end:
                self._intervals[-1] = Interval(last.start, end)
            return
        self._intervals.append(Interval(start, end))

    def merged(self) -> list[Interval]:
        """Return the busy intervals merged into a sorted, disjoint list."""
        return merge_intervals(self._intervals)


def unit_activity(
    trackers: Sequence[BusyRecord], total_cycles: int
) -> tuple[list[int], dict[tuple[bool, ...], int]]:
    """Busy cycles per unit and cycles per joint busy state, in one sweep.

    This is the computation behind Figures 3, 5, 7 and 8 of the paper.
    Returns ``(busy, states)``:

    * ``busy[i]`` counts the distinct cycles ``trackers[i]`` was busy, over
      all of its intervals (not clipped to ``total_cycles``); the busiest
      vector unit is the IDEAL bound of Figures 5 and 8;
    * ``states`` maps each tuple of busy flags (one per unit, in
      ``trackers`` order) to the cycles spent in it during
      ``[0, total_cycles)``.  Only states with a positive count appear, in
      order of first occurrence, so the counts sum to ``total_cycles``.
    """
    if total_cycles < 0:
        raise ValueError("total_cycles must be non-negative")
    width = len(trackers)
    busy: list[int] = []
    # (cycle, +bit / -bit) where a tracker turns busy / idle inside the window
    events: list[tuple[int, int]] = []
    for position, tracker in enumerate(trackers):
        bit = 1 << (width - 1 - position)
        cycles = 0
        for start, end in tracker.merged():
            cycles += end - start
            if start < total_cycles and end > 0:
                events.append((max(start, 0), bit))
                if end < total_cycles:
                    events.append((end, -bit))
        busy.append(cycles)
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

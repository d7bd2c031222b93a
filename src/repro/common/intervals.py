"""Busy-interval bookkeeping.

Both simulators avoid doing per-cycle accounting work for resources that are
busy for long stretches (a vector unit processing 128 elements, a memory
port streaming a vector load).  Instead each resource records half-open
``[start, end)`` busy intervals, and the analysis code derives per-cycle
statistics (state breakdowns, idle percentages) from the merged intervals.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence


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

    def overlaps(self, other: "Interval") -> bool:
        """Return True when the two half-open intervals share any cycle."""
        return self.start < other.end and other.start < self.end

    def contains(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


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


def total_busy(intervals: Iterable[Interval]) -> int:
    """Total number of cycles covered by the (possibly overlapping) intervals."""
    return sum(iv.length for iv in merge_intervals(intervals))


class BusyTracker:
    """Records busy intervals for one resource.

    The tracker accepts intervals in any order and offers cheap queries for
    the total busy time and for merged interval lists.  Appending an interval
    that extends the most recently appended one is the common fast path for
    the simulators (resources tend to be reserved in roughly increasing
    time order).
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

    def busy_cycles(self) -> int:
        """Total number of distinct cycles during which the resource was busy."""
        return total_busy(self._intervals)

    def busy_at(self, cycle: int) -> bool:
        """Return True when the resource is busy during ``cycle``."""
        return any(iv.contains(cycle) for iv in self._intervals)

    def last_end(self) -> int:
        """Return the end of the latest busy interval (0 when never busy)."""
        return max((iv.end for iv in self._intervals), default=0)

    def copy(self) -> "BusyTracker":
        """Return an independent tracker sharing the (immutable) intervals.

        ``Interval`` is frozen, so a shallow copy of the list fully isolates
        the two trackers — orders of magnitude cheaper than ``deepcopy``.
        """
        tracker = BusyTracker(self.name)
        tracker._intervals = list(self._intervals)
        return tracker

    def to_pairs(self) -> list[list[int]]:
        """Serialise the busy intervals as merged ``[start, end]`` pairs."""
        return [[iv.start, iv.end] for iv in self.merged()]

    @classmethod
    def from_pairs(cls, name: str, pairs: Iterable[Sequence[int]]) -> "BusyTracker":
        """Rebuild a tracker from :meth:`to_pairs` output."""
        tracker = cls(name)
        for start, end in pairs:
            tracker.add(int(start), int(end))
        return tracker

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)


def state_breakdown(
    trackers: Sequence[BusyTracker], total_cycles: int
) -> dict[tuple[bool, ...], int]:
    """Compute, for every combination of busy/idle resources, the cycle count.

    This is the computation behind Figures 3 and 7 of the paper: the machine
    state is a tuple describing which of the vector units (FU2, FU1, MEM) are
    busy, and the breakdown reports how many cycles were spent in each of the
    ``2**len(trackers)`` states over ``[0, total_cycles)``.
    """
    if total_cycles < 0:
        raise ValueError("total_cycles must be non-negative")
    merged_lists = [tracker.merged() for tracker in trackers]

    # Sweep over every boundary where any resource changes state.
    boundaries: set[int] = {0, total_cycles}
    for merged in merged_lists:
        for iv in merged:
            if iv.start < total_cycles:
                boundaries.add(iv.start)
            if iv.end < total_cycles:
                boundaries.add(iv.end)
    ordered = sorted(boundaries)

    counts: dict[tuple[bool, ...], int] = {}
    indices = [0] * len(merged_lists)
    for left, right in zip(ordered, ordered[1:], strict=False):
        state: list[bool] = []
        for res, merged in enumerate(merged_lists):
            idx = indices[res]
            while idx < len(merged) and merged[idx].end <= left:
                idx += 1
            indices[res] = idx
            busy = idx < len(merged) and merged[idx].start <= left < merged[idx].end
            state.append(busy)
        key = tuple(state)
        counts[key] = counts.get(key, 0) + (right - left)
    return counts

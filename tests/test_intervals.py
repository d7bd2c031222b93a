"""Unit and property tests for interval bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.intervals import (
    BusyTracker,
    Interval,
    merge_intervals,
    unit_activity,
)


class TestInterval:
    def test_length(self):
        assert Interval(3, 10).length == 7

    def test_invalid_order_rejected_at_tracker(self):
        # Interval itself is an unvalidated NamedTuple (hot-path construction);
        # the boundary that accepts untrusted endpoints is BusyTracker.add.
        with pytest.raises(ValueError):
            BusyTracker("fu").add(5, 2)


class TestMerge:
    def test_merge_disjoint(self):
        merged = merge_intervals([Interval(0, 2), Interval(5, 7)])
        assert merged == [Interval(0, 2), Interval(5, 7)]

    def test_merge_overlapping(self):
        merged = merge_intervals([Interval(0, 5), Interval(3, 9)])
        assert merged == [Interval(0, 9)]

    def test_merge_adjacent(self):
        merged = merge_intervals([Interval(0, 5), Interval(5, 9)])
        assert merged == [Interval(0, 9)]

    def test_zero_length_dropped(self):
        assert merge_intervals([Interval(4, 4)]) == []

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 50)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_merge_properties(self, raw):
        intervals = [Interval(start, start + length) for start, length in raw]
        merged = merge_intervals(intervals)
        # merged intervals are sorted, disjoint and non-empty
        for earlier, later in zip(merged, merged[1:], strict=False):
            assert earlier.end < later.start
        assert all(iv.length > 0 for iv in merged)
        # coverage is preserved
        covered = set()
        for iv in intervals:
            covered.update(range(iv.start, iv.end))
        merged_covered = set()
        for iv in merged:
            merged_covered.update(range(iv.start, iv.end))
        assert covered == merged_covered


def _busy_cycles(tracker):
    return sum(iv.length for iv in tracker.merged())


class TestBusyTracker:
    def test_busy_cycles(self):
        tracker = BusyTracker("fu")
        tracker.add(0, 10)
        tracker.add(20, 25)
        assert tracker.merged() == [Interval(0, 10), Interval(20, 25)]
        assert _busy_cycles(tracker) == 15

    def test_extending_last_interval(self):
        tracker = BusyTracker()
        tracker.add(0, 10)
        tracker.add(5, 15)
        assert tracker.merged() == [Interval(0, 15)]

    def test_zero_length_ignored(self):
        tracker = BusyTracker()
        tracker.add(5, 5)
        assert tracker.merged() == []

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().add(10, 4)

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_busy_cycles_matches_set_cover(self, raw):
        tracker = BusyTracker()
        covered = set()
        for start, length in raw:
            tracker.add(start, start + length)
            covered.update(range(start, start + length))
        assert _busy_cycles(tracker) == len(covered)


def _trackers(resources):
    trackers = []
    for spec in resources:
        tracker = BusyTracker()
        for start, length in spec:
            tracker.add(start, start + length)
        trackers.append(tracker)
    return trackers


def _per_cycle(resources, total):
    """Brute force: the busy flags of every cycle in ``[0, total)``, counted."""
    covered = [set() for _ in resources]
    for cells, spec in zip(covered, resources):
        for start, length in spec:
            cells.update(range(start, start + length))
    counts = {}
    for cycle in range(total):
        state = tuple(cycle in cells for cells in covered)
        counts[state] = counts.get(state, 0) + 1
    return [len(cells) for cells in covered], counts


#: up to three resources, each a list of ``(start, length)`` reservations
RESOURCES = st.lists(
    st.lists(st.tuples(st.integers(0, 100), st.integers(1, 20)), max_size=15),
    min_size=1,
    max_size=3,
)


class TestUnitActivity:
    def test_two_resources(self):
        a = BusyTracker("a")
        b = BusyTracker("b")
        a.add(0, 10)
        b.add(5, 15)
        busy, counts = unit_activity([a, b], 20)
        assert busy == [10, 10]
        assert list(counts.items()) == [
            ((True, False), 5),   # a only: cycles 0-5
            ((True, True), 5),    # both: 5-10
            ((False, True), 5),   # b only: 10-15
            ((False, False), 5),  # idle: 15-20
        ]

    def test_total_always_matches_cycles(self):
        a = BusyTracker()
        a.add(3, 7)
        _, counts = unit_activity([a], 50)
        assert sum(counts.values()) == 50

    def test_busy_cycles_are_not_clipped_to_the_window(self):
        a = BusyTracker()
        a.add(5, 30)
        busy, counts = unit_activity([a], 10)
        assert busy == [25]
        assert counts == {(False,): 5, (True,): 5}

    def test_zero_cycles_have_no_states(self):
        a = BusyTracker()
        a.add(0, 4)
        assert unit_activity([a], 0) == ([4], {})

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            unit_activity([BusyTracker()], -1)

    @given(RESOURCES, st.integers(0, 150))
    @settings(max_examples=80, deadline=None)
    def test_matches_a_per_cycle_count(self, resources, total):
        # keys, values and first-occurrence order all match the brute force
        busy, counts = unit_activity(_trackers(resources), total)
        expected_busy, expected_counts = _per_cycle(resources, total)
        assert busy == expected_busy
        assert list(counts.items()) == list(expected_counts.items())
        assert sum(counts.values()) == total

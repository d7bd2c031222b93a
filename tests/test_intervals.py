"""Unit and property tests for busy calendars and the unit-activity sweep."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.intervals import BusyCalendar, unit_activity


def _rows(calendar):
    return list(zip(calendar._starts, calendar._ends, strict=True))


def _runs(cycles):
    """The maximal ``(start, end)`` runs of consecutive cycles in ``cycles``."""
    runs = []
    for cycle in sorted(cycles):
        if runs and runs[-1][1] == cycle:
            runs[-1] = (runs[-1][0], cycle + 1)
        else:
            runs.append((cycle, cycle + 1))
    return runs


class TestBusyCalendar:
    def test_touching_rows_merge_on_either_side_in_any_order(self):
        # the middle row touches both neighbours; added last it joins them
        for order in itertools.permutations([(0, 10), (10, 25), (25, 30)]):
            calendar = BusyCalendar()
            for start, end in order:
                calendar.add(start, end)
            assert _rows(calendar) == [(0, 30)], order
            assert calendar.busy_cycles() == 30

    def test_separate_rows_stay_apart_in_order(self):
        calendar = BusyCalendar("fu")
        calendar.add(20, 25)
        calendar.add(0, 10)
        calendar.add(11, 12)
        assert _rows(calendar) == [(0, 10), (11, 12), (20, 25)]
        assert calendar.busy_cycles() == 16

    def test_busy_cycles(self):
        calendar = BusyCalendar("fu")
        calendar.add(0, 10)
        calendar.add(20, 25)
        assert _rows(calendar) == [(0, 10), (20, 25)]
        assert calendar.busy_cycles() == 15

    def test_extending_the_last_row(self):
        # an in-order unit starts at or after its last end: a row that
        # starts there extends the last row, a later one follows it
        calendar = BusyCalendar()
        calendar.add(0, 10)
        calendar.add(10, 15)
        assert _rows(calendar) == [(0, 15)]
        calendar.add(17, 20)
        assert _rows(calendar) == [(0, 15), (17, 20)]
        assert calendar.busy_cycles() == 18

    def test_empty_interval_records_nothing(self):
        calendar = BusyCalendar()
        calendar.add(5, 5)
        assert _rows(calendar) == []

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            BusyCalendar().add(10, 4)

    @pytest.mark.parametrize("start,end", [
        (10, 20),  # the same row
        (5, 11),   # over its start
        (19, 30),  # over its end
        (12, 15),  # inside it
        (0, 40),   # around it
        (15, 35),  # across the gap into the next row
    ])
    def test_overlap_rejected(self, start, end):
        calendar = BusyCalendar()
        calendar.add(10, 20)
        calendar.add(30, 40)
        with pytest.raises(ValueError):
            calendar.add(start, end)
        assert _rows(calendar) == [(10, 20), (30, 40)]

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 20)), max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_disjoint_intervals_give_their_merged_union(self, layout, rng):
        # (gap, length) pairs laid end to end: a zero gap makes rows touch
        intervals = []
        at = 0
        for gap, length in layout:
            intervals.append((at + gap, at + gap + length))
            at += gap + length
        rng.shuffle(intervals)
        calendar = BusyCalendar()
        covered = set()
        for start, end in intervals:
            calendar.add(start, end)
            covered.update(range(start, end))
        assert _rows(calendar) == _runs(covered)
        assert calendar.busy_cycles() == len(covered)


def _calendars(resources):
    """One calendar per resource, holding the union of its reservations."""
    calendars = []
    for spec in resources:
        calendar = BusyCalendar()
        for start, end in _runs({c for s, n in spec for c in range(s, s + n)}):
            calendar.add(start, end)
        calendars.append(calendar)
    return calendars


def _per_cycle(resources, total):
    """Brute force: the busy flags of every cycle in ``[0, total)``, counted."""
    covered = [set() for _ in resources]
    for cells, spec in zip(covered, resources, strict=True):
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
        a = BusyCalendar("a")
        b = BusyCalendar("b")
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
        a = BusyCalendar()
        a.add(3, 7)
        _, counts = unit_activity([a], 50)
        assert sum(counts.values()) == 50

    def test_busy_cycles_are_not_clipped_to_the_window(self):
        a = BusyCalendar()
        a.add(5, 30)
        busy, counts = unit_activity([a], 10)
        assert busy == [25]
        assert counts == {(False,): 5, (True,): 5}

    def test_zero_cycles_have_no_states(self):
        a = BusyCalendar()
        a.add(0, 4)
        assert unit_activity([a], 0) == ([4], {})

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            unit_activity([BusyCalendar()], -1)

    @given(RESOURCES, st.integers(0, 150))
    @settings(max_examples=80, deadline=None)
    def test_matches_a_per_cycle_count(self, resources, total):
        # keys, values and first-occurrence order all match the brute force
        busy, counts = unit_activity(_calendars(resources), total)
        expected_busy, expected_counts = _per_cycle(resources, total)
        assert busy == expected_busy
        assert list(counts.items()) == list(expected_counts.items())
        assert sum(counts.values()) == total

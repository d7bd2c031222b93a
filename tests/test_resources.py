"""Unit and property tests for schedulable resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.resources import GapResource, InOrderPipe, PipelinedResource


class TestGapResource:
    def test_reserves_at_earliest_when_free(self):
        res = GapResource("bus")
        assert res.reserve(10, 5) == 10
        assert res.busy_cycles() == 5

    def test_back_to_back_reservations_do_not_overlap(self):
        res = GapResource()
        first = res.reserve(0, 10)
        second = res.reserve(0, 10)
        assert first == 0
        assert second == 10

    def test_gap_filling(self):
        res = GapResource()
        res.reserve(0, 5)
        res.reserve(20, 5)
        # A later request that fits between the two reservations gets the gap.
        assert res.reserve(5, 10) == 5

    def test_filling_a_gap_exactly_joins_both_neighbours(self):
        res = GapResource()
        res.reserve(0, 5)
        res.reserve(10, 5)
        assert res.reserve(0, 5) == 5
        assert list(zip(res._starts, res._ends, strict=True)) == [(0, 15)]
        assert res.busy_cycles() == 15

    def test_gap_too_small_is_skipped(self):
        res = GapResource()
        res.reserve(0, 5)
        res.reserve(8, 5)
        assert res.reserve(0, 4) == 13

    def test_zero_duration(self):
        res = GapResource()
        assert res.reserve(7, 0) == 7
        assert res.busy_cycles() == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            GapResource().reserve(0, -1)

    def test_next_free_does_not_reserve(self):
        res = GapResource()
        res.reserve(0, 10)
        assert res.next_free(0, 5) == 10
        assert res.next_free(0, 5) == 10  # unchanged: nothing was reserved

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 30)), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_reservations_never_overlap(self, requests):
        res = GapResource()
        granted = []
        for earliest, duration in requests:
            start = res.reserve(earliest, duration)
            assert start >= earliest
            granted.append((start, start + duration))
        granted.sort()
        for (_s1, e1), (s2, _e2) in zip(granted, granted[1:], strict=False):
            assert e1 <= s2
        assert res.busy_cycles() == sum(e - s for s, e in granted)
        # the calendar is the resource's only busy record: it holds exactly
        # the granted intervals, merged where they touch
        merged = []
        for s, e in granted:
            if merged and merged[-1][1] == s:
                merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))
        assert list(zip(res._starts, res._ends, strict=True)) == merged

    # -- adversarial gap-filling invariants --------------------------------
    # GapResource underpins every machine-timing model (functional units and
    # the memory address bus); these randomized sequences pin the internal
    # invariants the simulators silently rely on.

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 25)),
                    min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_internal_intervals_stay_sorted_and_disjoint(self, requests):
        res = GapResource()
        for earliest, duration in requests:
            res.reserve(earliest, duration)
            starts, ends = res._starts, res._ends
            assert len(starts) == len(ends)
            for s, e in zip(starts, ends, strict=True):
                assert s < e  # merging never leaves empty intervals behind
            for (_s1, e1), (s2, _e2) in zip(zip(starts, ends, strict=True),
                                          zip(starts[1:], ends[1:], strict=True),
                                          strict=False):
                # strictly separated: adjacent intervals must have merged
                assert e1 < s2

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 25)),
                    min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_next_free_agrees_with_reserve(self, requests):
        res = GapResource()
        for earliest, duration in requests:
            predicted = res.next_free(earliest, duration)
            start = res.reserve(earliest, duration)
            assert start == predicted
            assert start >= earliest

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 20)),
                    min_size=2, max_size=60),
           st.integers(0, 400), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_probe_never_lands_on_busy_cycles(self, requests, probe_earliest,
                                              probe_duration):
        res = GapResource()
        for earliest, duration in requests:
            res.reserve(earliest, duration)
        probe = res.next_free(probe_earliest, probe_duration)
        assert probe >= probe_earliest
        busy = {c for s, e in zip(res._starts, res._ends, strict=True) for c in range(s, e)}
        assert not busy.intersection(range(probe, probe + probe_duration))


class TestPipelinedResource:
    def test_one_per_cycle(self):
        unit = PipelinedResource("scalar")
        assert unit.reserve(5) == 5
        assert unit.reserve(5) == 6
        assert unit.reserve(5) == 7

    def test_width_two(self):
        unit = PipelinedResource(width=2)
        assert unit.reserve(0) == 0
        assert unit.reserve(0) == 0
        assert unit.reserve(0) == 1

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            PipelinedResource(width=0)

    def test_operation_count(self):
        unit = PipelinedResource()
        for _ in range(5):
            unit.reserve(0)
        assert sum(unit._slots.values()) == 5


class TestInOrderPipe:
    def test_depth_is_added(self):
        pipe = InOrderPipe(depth=3)
        assert pipe.advance(10) == 13

    def test_one_exit_per_cycle(self):
        pipe = InOrderPipe(depth=3)
        first = pipe.advance(0)
        second = pipe.advance(0)
        third = pipe.advance(0)
        assert (first, second, third) == (3, 4, 5)

    def test_gap_resets_rate_limit(self):
        pipe = InOrderPipe(depth=2)
        pipe.advance(0)
        assert pipe.advance(100) == 102

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_exits_strictly_increase(self, enters):
        pipe = InOrderPipe(depth=3)
        exits = [pipe.advance(t) for t in sorted(enters)]
        for earlier, later in zip(exits, exits[1:], strict=False):
            assert later > earlier

"""Tests for RangeSet and restart/performance markers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp import RangeSet, RestartMarker


def test_add_and_total():
    rs = RangeSet([(0, 100), (200, 300)])
    assert rs.total == 200
    assert list(rs) == [(0, 100), (200, 300)]


def test_overlapping_ranges_merge():
    rs = RangeSet([(0, 100), (50, 150)])
    assert list(rs) == [(0, 150)]


def test_adjacent_ranges_merge():
    rs = RangeSet([(0, 100), (100, 200)])
    assert list(rs) == [(0, 200)]


def test_empty_range_ignored():
    rs = RangeSet([(5, 5)])
    assert len(rs) == 0


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        RangeSet([(10, 5)])


def test_zero_length_add_at_gap_boundary_does_not_merge():
    # a degenerate marker landing exactly between two ranges must not
    # weld them together: no byte at 100 was ever delivered
    rs = RangeSet([(0, 100), (100, 100), (150, 200)])
    assert list(rs) == [(0, 100), (150, 200)]
    rs.add(100, 100)
    assert list(rs) == [(0, 100), (150, 200)]
    assert not rs.contains(100)


def test_covers_across_merged_boundary():
    # two abutting adds coalesce into one range, so a span straddling
    # the old seam is fully covered
    rs = RangeSet()
    rs.add(0, 5)
    rs.add(5, 10)
    assert list(rs) == [(0, 10)]
    assert rs.covers(3, 8)
    assert rs.covers(0, 10)
    assert not rs.covers(3, 11)


def test_triple_coalescing_through_middle_add():
    # filling the gap between two ranges collapses all three into one
    rs = RangeSet([(0, 2), (4, 6)])
    rs.add(2, 4)
    assert list(rs) == [(0, 6)]
    assert rs.total == 6
    assert rs.covers(1, 5)
    assert len(rs.complement(6)) == 0


def test_contains_and_covers():
    rs = RangeSet([(0, 100)])
    assert rs.contains(0)
    assert rs.contains(99)
    assert not rs.contains(100)
    assert rs.covers(10, 90)
    assert not rs.covers(50, 150)


def test_complement():
    rs = RangeSet([(100, 200), (300, 400)])
    missing = rs.complement(500)
    assert list(missing) == [(0, 100), (200, 300), (400, 500)]
    assert missing.total == 300


def test_complement_of_full_coverage_is_empty():
    rs = RangeSet([(0, 500)])
    assert len(rs.complement(500)) == 0


def test_rest_argument_round_trip():
    rs = RangeSet([(0, 1000), (5000, 9000)])
    text = rs.to_rest_argument()
    assert text == "0-1000,5000-9000"
    assert RangeSet.from_rest_argument(text) == rs
    assert RangeSet.from_rest_argument("") == RangeSet()


def test_rest_argument_malformed():
    with pytest.raises(ValueError):
        RangeSet.from_rest_argument("abc")
    with pytest.raises(ValueError):
        RangeSet.from_rest_argument("1-2-3")


def test_restart_marker_bytes():
    marker = RestartMarker(RangeSet([(0, 4096)]))
    assert marker.bytes_on_disk == 4096


ranges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=999),
    ).map(lambda t: (min(t), max(t))),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(ranges=ranges_strategy, size=st.integers(min_value=1, max_value=1000))
def test_property_complement_partitions_file(ranges, size):
    rs = RangeSet(ranges)
    clipped_total = sum(
        max(0, min(e, size) - min(s, size)) for s, e in rs
    )
    missing = rs.complement(size)
    # covered (within file) + missing == file size
    assert clipped_total + missing.total == pytest.approx(size)
    # complement never overlaps the original set
    for s, e in missing:
        mid = (s + e) / 2
        assert not rs.contains(mid)


@settings(max_examples=80, deadline=None)
@given(ranges=ranges_strategy)
def test_property_ranges_stay_disjoint_and_sorted(ranges):
    rs = RangeSet(ranges)
    flat = list(rs)
    for (s1, e1), (s2, e2) in zip(flat, flat[1:]):
        assert e1 < s2  # disjoint and strictly ordered (adjacent merged)
    for s, e in flat:
        assert s < e

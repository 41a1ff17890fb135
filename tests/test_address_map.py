"""Tests for the TMC address mapping (paper Fig. 3)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import address_map as am
from repro.types import Level

addrs = st.integers(min_value=0, max_value=2**28 - 1)


class TestBases:
    def test_group_base_alignment(self):
        assert am.group_base(0) == 0
        assert am.group_base(3) == 0
        assert am.group_base(4) == 4
        assert am.group_base(7) == 4

    def test_pair_base(self):
        assert am.pair_base(10) == 10
        assert am.pair_base(11) == 10

    def test_group_lines(self):
        assert am.group_lines(6) == [4, 5, 6, 7]


class TestLocationFor:
    def test_group_base_never_moves(self):
        for level in Level:
            assert am.location_for(8, level) == 8

    def test_odd_line_locations(self):
        assert am.location_for(9, Level.UNCOMPRESSED) == 9
        assert am.location_for(9, Level.PAIR) == 8
        assert am.location_for(9, Level.QUAD) == 8

    def test_third_line_locations(self):
        assert am.location_for(10, Level.UNCOMPRESSED) == 10
        assert am.location_for(10, Level.PAIR) == 10
        assert am.location_for(10, Level.QUAD) == 8

    def test_fourth_line_locations(self):
        assert am.location_for(11, Level.UNCOMPRESSED) == 11
        assert am.location_for(11, Level.PAIR) == 10
        assert am.location_for(11, Level.QUAD) == 8


class TestSlotMembers:
    def test_quad_members(self):
        assert am.slot_members(4, Level.QUAD) == [4, 5, 6, 7]

    def test_pair_members(self):
        assert am.slot_members(6, Level.PAIR) == [6, 7]

    def test_uncompressed_members(self):
        assert am.slot_members(5, Level.UNCOMPRESSED) == [5]


class TestCandidates:
    def test_group_base_single_candidate(self):
        assert am.candidate_locations(8) == [(8, Level.QUAD)]

    def test_odd_line_two_candidates(self):
        assert am.candidate_locations(9) == [
            (8, Level.QUAD),
            (9, Level.UNCOMPRESSED),
        ]

    def test_pair_base_two_candidates(self):
        assert am.candidate_locations(10) == [(8, Level.QUAD), (10, Level.PAIR)]

    def test_last_line_three_candidates(self):
        assert am.candidate_locations(11) == [
            (8, Level.QUAD),
            (10, Level.PAIR),
            (11, Level.UNCOMPRESSED),
        ]

    def test_needs_prediction(self):
        assert not am.needs_prediction(8)
        assert am.needs_prediction(9)
        assert am.needs_prediction(10)
        assert am.needs_prediction(11)


@given(addrs)
def test_levels_map_into_group(addr):
    """Every candidate location stays within the line's own group."""
    for loc, _ in am.candidate_locations(addr):
        assert am.group_base(loc) == am.group_base(addr)


@given(addrs)
def test_membership_is_consistent(addr):
    """addr is a member of the slot each level maps it to."""
    for level in Level:
        loc = am.location_for(addr, level)
        assert addr in am.slot_members(loc, level)


@given(addrs)
def test_candidates_deduplicated(addr):
    locs = [loc for loc, _ in am.candidate_locations(addr)]
    assert len(locs) == len(set(locs))

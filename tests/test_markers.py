"""Tests for inline-metadata markers, classification and inversion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.markers import MarkerScheme, SlotKind, invert
from repro.types import Level
from tests.lineutils import zero_line


@pytest.fixture
def scheme():
    return MarkerScheme(key=1234)


class TestInvert:
    def test_involution(self):
        data = bytes(range(64))
        assert invert(invert(data)) == data

    def test_complement(self):
        assert invert(b"\x00\xff") == b"\xff\x00"


class TestMarkerGeneration:
    def test_marker_size(self, scheme):
        assert len(scheme.marker(0, Level.PAIR)) == 4
        assert len(scheme.marker(0, Level.QUAD)) == 4

    def test_invalid_marker_is_full_line(self, scheme):
        assert len(scheme.invalid_marker(7)) == 64

    def test_markers_differ_per_level(self, scheme):
        assert scheme.marker(4, Level.PAIR) != scheme.marker(4, Level.QUAD)

    def test_markers_differ_per_location(self, scheme):
        assert scheme.marker(0, Level.PAIR) != scheme.marker(4, Level.PAIR)

    def test_no_marker_for_uncompressed(self, scheme):
        with pytest.raises(ValueError):
            scheme.marker(0, Level.UNCOMPRESSED)

    def test_markers_deterministic(self):
        a = MarkerScheme(key=9).marker(12, Level.QUAD)
        b = MarkerScheme(key=9).marker(12, Level.QUAD)
        assert a == b

    def test_key_changes_markers(self):
        a = MarkerScheme(key=1).marker(12, Level.QUAD)
        b = MarkerScheme(key=2).marker(12, Level.QUAD)
        assert a != b

    def test_marker_set_pairwise_distinct(self, scheme):
        for loc in range(0, 64, 4):
            pair = scheme.marker(loc, Level.PAIR)
            quad = scheme.marker(loc, Level.QUAD)
            il_tail = scheme.invalid_marker(loc)[-4:]
            values = {pair, quad, il_tail, invert(pair), invert(quad), invert(il_tail)}
            assert len(values) == 6

    def test_bad_marker_size_rejected(self):
        with pytest.raises(ValueError):
            MarkerScheme(marker_size=0)
        with pytest.raises(ValueError):
            MarkerScheme(marker_size=9)


class TestClassification:
    def test_plain_data_is_uncompressed(self, scheme):
        assert scheme.classify(0, zero_line()).kind is SlotKind.UNCOMPRESSED

    def test_quad_marker_detected(self, scheme):
        slot = b"\x00" * 60 + scheme.marker(8, Level.QUAD)
        cls = scheme.classify(8, slot)
        assert cls.kind is SlotKind.QUAD
        assert cls.level is Level.QUAD

    def test_pair_marker_detected(self, scheme):
        slot = b"\x00" * 60 + scheme.marker(8, Level.PAIR)
        cls = scheme.classify(8, slot)
        assert cls.kind is SlotKind.PAIR
        assert cls.level is Level.PAIR

    def test_invalid_marker_detected(self, scheme):
        assert scheme.classify(8, scheme.invalid_marker(8)).kind is SlotKind.INVALID

    def test_inverted_tail_flags_maybe_inverted(self, scheme):
        slot = b"\x00" * 60 + invert(scheme.marker(8, Level.QUAD))
        assert scheme.classify(8, slot).kind is SlotKind.MAYBE_INVERTED

    def test_inverted_invalid_flags_maybe_inverted(self, scheme):
        slot = invert(scheme.invalid_marker(8))
        assert scheme.classify(8, slot).kind is SlotKind.MAYBE_INVERTED

    def test_marker_from_other_location_not_detected(self, scheme):
        # marker for slot 12 must not classify as compressed at slot 8
        slot = b"\x00" * 60 + scheme.marker(12, Level.QUAD)
        assert scheme.classify(8, slot).kind is SlotKind.UNCOMPRESSED

    def test_wrong_slot_size_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.classify(0, b"\x00" * 63)


class TestCollision:
    def test_colliding_line_detected(self, scheme):
        line = b"\x11" * 60 + scheme.marker(4, Level.PAIR)
        assert scheme.collides(4, line)

    def test_invalid_marker_collision_detected(self, scheme):
        assert scheme.collides(4, scheme.invalid_marker(4))

    def test_benign_line_does_not_collide(self, scheme):
        assert not scheme.collides(4, bytes(range(64)))

    def test_inverted_line_resolves_cleanly(self, scheme):
        # a colliding line stored inverted must classify as MAYBE_INVERTED
        line = b"\x22" * 60 + scheme.marker(4, Level.QUAD)
        stored = invert(line)
        assert scheme.classify(4, stored).kind is SlotKind.MAYBE_INVERTED


class TestRekey:
    def test_rekey_changes_markers(self, scheme):
        before = scheme.marker(8, Level.QUAD)
        scheme.rekey()
        assert scheme.generation == 1
        assert scheme.marker(8, Level.QUAD) != before

    def test_rekey_deterministic_sequence(self):
        a = MarkerScheme(key=5)
        b = MarkerScheme(key=5)
        a.rekey()
        b.rekey()
        assert a.marker(0, Level.PAIR) == b.marker(0, Level.PAIR)


class TestStorage:
    def test_storage_matches_table3(self, scheme):
        # 2 markers x 4B + 64B invalid marker = 72 bytes
        assert scheme.storage_bits() == (4 + 4 + 64) * 8


@given(st.integers(min_value=0, max_value=2**28 - 1))
def test_classification_of_own_markers(loc):
    scheme = MarkerScheme(key=77)
    quad_slot = b"\x00" * 60 + scheme.marker(loc, Level.QUAD)
    pair_slot = b"\x00" * 60 + scheme.marker(loc, Level.PAIR)
    assert scheme.classify(loc, quad_slot).level is Level.QUAD
    assert scheme.classify(loc, pair_slot).level is Level.PAIR
    assert scheme.classify(loc, scheme.invalid_marker(loc)).kind is SlotKind.INVALID


def _reference_kind(scheme, loc, slot):
    """The classification order spelled out from the public marker values."""
    tail = slot[-scheme.marker_size:]
    quad = scheme.marker(loc, Level.QUAD)
    pair = scheme.marker(loc, Level.PAIR)
    invalid = scheme.invalid_marker(loc)
    if tail == quad:
        return SlotKind.QUAD
    if tail == pair:
        return SlotKind.PAIR
    if slot == invalid:
        return SlotKind.INVALID
    if tail in (invert(quad), invert(pair)) or slot == invert(invalid):
        return SlotKind.MAYBE_INVERTED
    return SlotKind.UNCOMPRESSED


def _probe_slots(scheme, loc):
    body = bytes(range(64 - scheme.marker_size))
    return [
        body + scheme.marker(loc, Level.QUAD),
        body + scheme.marker(loc, Level.PAIR),
        scheme.invalid_marker(loc),
        invert(body + scheme.marker(loc, Level.QUAD)),
        invert(body + scheme.marker(loc, Level.PAIR)),
        invert(scheme.invalid_marker(loc)),
        bytes(range(64)),
        zero_line(),
    ]


class TestClassifyAcrossRekey:
    """``classify`` memoizes markers per slot and returns shared
    ``SlotClass`` values; a rekey must reset the memo."""

    LOCS = (0, 1, 2, 3, 64, 4097)

    def test_same_kinds_before_and_after_rekey(self):
        scheme = MarkerScheme(key=31)
        before = {
            loc: [scheme.classify(loc, s).kind for s in _probe_slots(scheme, loc)]
            for loc in self.LOCS
        }
        old_slots = {loc: _probe_slots(scheme, loc) for loc in self.LOCS}
        scheme.rekey()
        for loc in self.LOCS:
            after = [scheme.classify(loc, s).kind for s in _probe_slots(scheme, loc)]
            assert after == before[loc]
            # slots written under the old key are judged by the new markers
            for slot in old_slots[loc]:
                assert scheme.classify(loc, slot).kind is _reference_kind(scheme, loc, slot)

    def test_memoized_scheme_matches_a_fresh_one(self):
        used = MarkerScheme(key=31)
        for loc in self.LOCS:
            for slot in _probe_slots(used, loc):
                used.classify(loc, slot)
        used.rekey()
        fresh = MarkerScheme(key=31)
        fresh.rekey()
        for loc in self.LOCS:
            for slot in _probe_slots(fresh, loc):
                assert used.classify(loc, slot) == fresh.classify(loc, slot)
                assert used.classify(loc, slot).kind is _reference_kind(fresh, loc, slot)

    @given(st.integers(min_value=0, max_value=2**28 - 1), st.binary(min_size=64, max_size=64))
    def test_matches_reference_order(self, loc, slot):
        scheme = MarkerScheme(key=9, marker_size=5)
        assert scheme.classify(loc, slot).kind is _reference_kind(scheme, loc, slot)
        for own in _probe_slots(scheme, loc):
            assert scheme.classify(loc, own).kind is _reference_kind(scheme, loc, own)

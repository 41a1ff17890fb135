"""Tests for inline-metadata markers, classification and inversion."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.markers as markers_module
from repro.core.markers import MarkerScheme, SlotKind, invert
from repro.types import Level
from repro.util.hashing import KeyedHash, mix64
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


_INVERT = bytes(i ^ 0xFF for i in range(256))
_TWEAK_PAIR, _TWEAK_QUAD, _TWEAK_INVALID = 1, 2, 3


class _FrozenScheme:
    """The marker scheme as it was when each slot's memo held six byte
    strings: ``_derive`` and ``classify`` copied verbatim.

    ``_reference_kind`` above derives from the public values, so it
    cannot see a changed marker value; this copy can.  Markers live only
    in memory contents, so a changed value moves no golden either.
    """

    def __init__(self, key, marker_size):
        self.marker_size = marker_size
        self._generation = 0
        self._set_key(key)

    def rekey(self):
        self._generation += 1
        self._set_key(self._hash.hash64(self._generation, tweak=0xDEAD))

    def _set_key(self, key):
        self._hash = KeyedHash(key)
        self._cache = {}

    def _derive(self, loc):
        size = self.marker_size
        seed = self._hash.hash64(loc, _TWEAK_INVALID)
        invalid = (seed.to_bytes(8, "little") * ((64 + 7) // 8))[:64]
        inv_invalid = invalid.translate(_INVERT)
        taken = [invalid[-size:], inv_invalid[-size:]]
        fresh = []
        for attempt in (_TWEAK_PAIR, _TWEAK_QUAD):
            while True:
                value = mix64(seed ^ attempt).to_bytes(8, "little")[:size]
                inverse = value.translate(_INVERT)
                if value not in taken and inverse not in taken:
                    taken.append(value)
                    taken.append(inverse)
                    fresh.append(value)
                    break
                attempt += 0x100
        pair, quad = fresh
        return (
            pair,
            quad,
            invalid,
            pair.translate(_INVERT),
            quad.translate(_INVERT),
            inv_invalid,
        )

    def _slot_markers(self, loc):
        cached = self._cache.get(loc)
        if cached is None:
            cached = self._derive(loc)
            self._cache[loc] = cached
        return cached

    def marker(self, loc, level):
        return self._slot_markers(loc)[0 if level is Level.PAIR else 1]

    def invalid_marker(self, loc):
        return self._slot_markers(loc)[2]

    def classify(self, loc, slot):
        pair, quad, invalid, inv_pair, inv_quad, inv_invalid = self._slot_markers(loc)
        tail = slot[-self.marker_size :]
        if tail == quad:
            return markers_module._QUAD_SLOT
        if tail == pair:
            return markers_module._PAIR_SLOT
        if slot == invalid:
            return markers_module._INVALID_SLOT
        if tail == inv_quad or tail == inv_pair or slot == inv_invalid:
            return markers_module._MAYBE_INVERTED_SLOT
        return markers_module._UNCOMPRESSED_SLOT

    def collides(self, loc, line):
        kind = self.classify(loc, line).kind
        return kind in (SlotKind.PAIR, SlotKind.QUAD, SlotKind.INVALID)


def _crafted_slots(ref, loc, body):
    """A slot for every branch of ``classify`` at ``loc``, from ``ref``'s values."""
    size = ref.marker_size
    head = body[: 64 - size]
    invalid = ref.invalid_marker(loc)
    tails = [
        ref.marker(loc, Level.QUAD),
        ref.marker(loc, Level.PAIR),
        invert(ref.marker(loc, Level.QUAD)),
        invert(ref.marker(loc, Level.PAIR)),
        # the tail alone equals Marker-IL's tail, or its complement
        invalid[-size:],
        invert(invalid[-size:]),
    ]
    slots = [head + tail for tail in tails]
    slots += [invalid, invert(invalid), body, invert(body)]
    # Marker-IL with one byte changed ahead of its (still matching) tail
    slots.append(bytes([invalid[0] ^ 1]) + invalid[1:])
    slots.append(invert(slots[-1]))
    return slots


class TestMatchesFrozenScheme:
    """Every marker value, classification and collision verdict equals
    the six-tuple scheme's, at every marker size and across rekeys."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(st.integers(min_value=0, max_value=2**28 - 1), min_size=1, max_size=4),
        st.lists(st.binary(min_size=64, max_size=64), min_size=1, max_size=3),
    )
    def test_values_and_verdicts_match(self, size, key, locs, bodies):
        scheme = MarkerScheme(key=key, marker_size=size)
        ref = _FrozenScheme(key, size)
        for _epoch in range(3):
            for loc in locs:
                assert scheme.marker(loc, Level.PAIR) == ref.marker(loc, Level.PAIR)
                assert scheme.marker(loc, Level.QUAD) == ref.marker(loc, Level.QUAD)
                assert scheme.invalid_marker(loc) == ref.invalid_marker(loc)
                for body in bodies:
                    for slot in _crafted_slots(ref, loc, body):
                        assert scheme.classify(loc, slot) is ref.classify(loc, slot)
                        assert scheme.collides(loc, slot) is ref.collides(loc, slot)
            scheme.rekey()
            ref.rekey()

    def test_every_branch_is_reached(self):
        seen = set()
        for size in range(1, 9):
            ref = _FrozenScheme(0x5EED, size)
            scheme = MarkerScheme(key=0x5EED, marker_size=size)
            for slot in _crafted_slots(ref, 40, bytes(range(64))):
                cls = scheme.classify(40, slot)
                assert cls is ref.classify(40, slot)
                seen.add(cls.kind)
        assert seen == set(SlotKind)


def test_memo_holds_one_small_record_per_slot():
    # The memo is the largest structure a PTMC simulation builds: one
    # entry per touched slot.  Six byte strings per slot (two of them
    # 64-byte lines) took about 490 B a slot; one record takes about 110.
    for size in (4, 8):
        scheme = MarkerScheme(key=3, marker_size=size)
        line = bytes(range(64))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for loc in range(10_000):
                scheme.classify(loc, line)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(scheme._cache) == 10_000
        assert held <= 1_500_000, (size, held)

"""Tests for the keyed hash used for marker generation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import KeyedHash, mix64


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_output_in_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**70):
            assert 0 <= mix64(value) < 2**64

    def test_bijective_on_samples(self):
        values = [mix64(i) for i in range(10_000)]
        assert len(set(values)) == 10_000

    def test_avalanche(self):
        # Flipping one input bit should flip roughly half the output bits.
        flips = bin(mix64(0) ^ mix64(1)).count("1")
        assert 16 <= flips <= 48


class TestKeyedHash:
    def test_deterministic_given_key(self):
        h = KeyedHash(42)
        assert h.hash64(7) == KeyedHash(42).hash64(7)

    def test_key_changes_output(self):
        assert KeyedHash(1).hash64(7) != KeyedHash(2).hash64(7)

    def test_tweak_separates_domains(self):
        h = KeyedHash(9)
        assert h.hash64(7, tweak=0) != h.hash64(7, tweak=1)


@given(st.integers(min_value=0), st.integers(min_value=0, max_value=2**64 - 1))
def test_hash64_in_range(key, message):
    assert 0 <= KeyedHash(key).hash64(message) < 2**64

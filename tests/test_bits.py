"""Unit and property tests for the bit-stream helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import BitReader, BitWriter


class TestBitWriter:
    def test_empty_stream(self):
        writer = BitWriter()
        assert writer.bit_length == 0
        assert writer.byte_length == 0
        assert writer.to_bytes() == b""

    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.to_bytes() == b"\xab"

    def test_partial_byte_is_zero_padded(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        assert writer.to_bytes() == bytes([0b10100000])

    def test_msb_first_ordering(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.write(0, 1)
        writer.write(1, 1)
        writer.write(0b11111, 5)
        assert writer.to_bytes() == bytes([0b10111111])

    def test_byte_length_rounds_up(self):
        writer = BitWriter()
        writer.write(0, 9)
        assert writer.byte_length == 2

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0b100, 2)

    def test_negative_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_negative_width_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0, -1)

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0


class TestBitReader:
    def test_read_back_single_value(self):
        reader = BitReader(b"\xf0")
        assert reader.read(4) == 0xF
        assert reader.read(4) == 0x0

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read(5)
        assert reader.bits_remaining == 11

    def test_read_spanning_bytes(self):
        reader = BitReader(bytes([0b00000001, 0b10000000]))
        assert reader.read(4) == 0
        assert reader.read(8) == 0b00011000


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=33), st.integers(min_value=0)), max_size=50))
def test_roundtrip_random_fields(fields):
    """Any sequence of (width, value) fields reads back exactly."""
    fields = [(width, value & ((1 << width) - 1)) for width, value in fields]
    writer = BitWriter()
    for width, value in fields:
        writer.write(value, width)
    reader = BitReader(writer.to_bytes())
    for width, value in fields:
        assert reader.read(width) == value


class _BitwiseReader:
    """Reference reader: one bit at a time, as the original implementation."""

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def read(self, nbits):
        if self._pos + nbits > len(self._data) * 8:
            raise EOFError("bit stream exhausted")
        value = 0
        for _ in range(nbits):
            byte = self._data[self._pos >> 3]
            value = (value << 1) | ((byte >> (7 - (self._pos & 7))) & 1)
            self._pos += 1
        return value


@given(
    st.binary(max_size=40),
    st.lists(st.integers(min_value=0, max_value=70), max_size=30),
)
def test_reader_matches_bit_at_a_time_reference(data, widths):
    """Word-at-a-time reads agree with the bitwise reference, including
    where the stream runs out."""
    fast, slow = BitReader(data), _BitwiseReader(data)
    for width in widths:
        try:
            expected = slow.read(width)
        except EOFError:
            with pytest.raises(EOFError):
                fast.read(width)
            continue
        assert fast.read(width) == expected
        assert fast.bits_remaining == len(data) * 8 - slow._pos


def test_negative_width_rejected():
    with pytest.raises(ValueError):
        BitReader(b"\x00").read(-1)

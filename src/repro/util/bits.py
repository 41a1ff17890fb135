"""Bit-level read/write streams used by the compression encoders.

Hardware compressors (FPC, C-Pack) emit variable-width fields that are not
byte aligned.  ``BitWriter``/``BitReader`` provide a minimal MSB-first bit
stream so the encoders can mirror the hardware layouts exactly and the
encoded size in bits can be charged against the 64-byte line budget.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates an MSB-first bit stream and renders it as bytes."""

    def __init__(self) -> None:
        self._value = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value`` to the stream."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._value = (self._value << nbits) | value
        self._nbits += nbits

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    @property
    def byte_length(self) -> int:
        """Size in bytes when padded up to a whole byte."""
        return (self._nbits + 7) // 8

    def to_bytes(self) -> bytes:
        """Render the stream, zero-padded in the final partial byte."""
        pad = (8 - self._nbits % 8) % 8
        total_bits = self._nbits + pad
        return (self._value << pad).to_bytes(total_bits // 8, "big")


class BitReader:
    """Reads an MSB-first bit stream produced by :class:`BitWriter`.

    The buffer is converted to one integer up front, so a read of any
    width is a single shift and mask.
    """

    def __init__(self, data: bytes) -> None:
        self._nbits = len(data) * 8
        self._value = int.from_bytes(data, "big")
        self._pos = 0

    def read(self, nbits: int) -> int:
        """Consume and return the next ``nbits`` bits as an unsigned int."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        end = self._pos + nbits
        if end > self._nbits:
            raise EOFError("bit stream exhausted")
        self._pos = end
        return (self._value >> (self._nbits - end)) & ((1 << nbits) - 1)

    @property
    def bits_remaining(self) -> int:
        """Bits left in the underlying buffer (including padding)."""
        return self._nbits - self._pos

"""Frequent Pattern Compression (FPC).

FPC (Alameldeen & Wood, ISCA 2004) compresses a cache line one 32-bit word
at a time.  Each word is encoded as a 3-bit prefix plus a variable-width
data field, exploiting frequently occurring patterns: runs of zeros, small
sign-extended integers, half-word patterns and repeated bytes.

The payload is a raw MSB-first bit stream; exactly 16 words (one 64-byte
line) are decoded, so no explicit length header is needed.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.compression.base import LINE_SIZE, CompressionAlgorithm, CompressionError
from repro.util.bits import BitReader

_WORD_BITS = 32
_WORDS_PER_LINE = LINE_SIZE // 4

# 3-bit prefixes (values from the FPC paper).
_P_ZERO_RUN = 0b000
_P_4BIT = 0b001
_P_8BIT = 0b010
_P_16BIT = 0b011
_P_HALF_PADDED = 0b100
_P_TWO_HALF_BYTES = 0b101
_P_REPEATED_BYTES = 0b110
_P_UNCOMPRESSED = 0b111

_MAX_ZERO_RUN = 8

#: a line as its 16 little-endian 32-bit words
_WORDS = struct.Struct(f"<{_WORDS_PER_LINE}I")


def _fits_signed(word: int, nbits: int) -> bool:
    """True if the 32-bit word is the sign extension of its low ``nbits``."""
    low = word & ((1 << nbits) - 1)
    sign = (low >> (nbits - 1)) & 1
    extended = low if not sign else low | (~((1 << nbits) - 1) & 0xFFFFFFFF)
    return extended == word


def _sign_extend(value: int, nbits: int, out_bits: int) -> int:
    """Sign-extend the ``nbits``-bit ``value`` to ``out_bits`` (unsigned)."""
    sign = (value >> (nbits - 1)) & 1
    if sign:
        value |= (~((1 << nbits) - 1)) & ((1 << out_bits) - 1)
    return value


class FPC(CompressionAlgorithm):
    """Frequent Pattern Compression over 32-bit words."""

    name = "fpc"

    def compress(self, line: bytes) -> Optional[bytes]:
        self.check_line(line)
        words = _WORDS.unpack(line)
        # hot path: accumulate the bit stream in a single int (MSB-first),
        # equivalent to BitWriter but without per-field call overhead
        acc = 0
        nbits = 0
        i = 0
        while i < 16:
            word = words[i]
            if word == 0:
                run = 1
                while i + run < 16 and words[i + run] == 0 and run < _MAX_ZERO_RUN:
                    run += 1
                acc = (acc << 6) | (run - 1)  # prefix 000 + 3-bit length
                nbits += 6
                i += run
                continue
            i += 1
            if word < 8 or word >= 0xFFFFFFF8:  # sign-extended 4-bit
                acc = (acc << 7) | (_P_4BIT << 4) | (word & 0xF)
                nbits += 7
            elif word < 0x80 or word >= 0xFFFFFF80:  # sign-extended 8-bit
                acc = (acc << 11) | (_P_8BIT << 8) | (word & 0xFF)
                nbits += 11
            elif word < 0x8000 or word >= 0xFFFF8000:  # sign-extended 16-bit
                acc = (acc << 19) | (_P_16BIT << 16) | (word & 0xFFFF)
                nbits += 19
            elif word & 0xFFFF == 0:
                acc = (acc << 19) | (_P_HALF_PADDED << 16) | (word >> 16)
                nbits += 19
            elif ((word >> 16) < 0x80 or (word >> 16) >= 0xFF80) and (
                (word & 0xFFFF) < 0x80 or (word & 0xFFFF) >= 0xFF80
            ):  # each 16-bit half is the sign extension of its low byte
                acc = (acc << 19) | (_P_TWO_HALF_BYTES << 16) | (
                    ((word >> 16) & 0xFF) << 8
                ) | (word & 0xFF)
                nbits += 19
            elif word == (word & 0xFF) * 0x01010101:
                acc = (acc << 11) | (_P_REPEATED_BYTES << 8) | (word & 0xFF)
                nbits += 11
            else:
                acc = (acc << 35) | (_P_UNCOMPRESSED << 32) | word
                nbits += 35
        nbytes = (nbits + 7) // 8
        if nbytes >= LINE_SIZE:
            return None
        pad = nbytes * 8 - nbits
        return (acc << pad).to_bytes(nbytes, "big")

    def decompress(self, payload: bytes) -> bytes:
        reader = BitReader(payload)
        words: List[int] = []
        try:
            while len(words) < _WORDS_PER_LINE:
                prefix = reader.read(3)
                if prefix == _P_ZERO_RUN:
                    run = reader.read(3) + 1
                    words.extend([0] * run)
                elif prefix == _P_4BIT:
                    words.append(_sign_extend(reader.read(4), 4, _WORD_BITS))
                elif prefix == _P_8BIT:
                    words.append(_sign_extend(reader.read(8), 8, _WORD_BITS))
                elif prefix == _P_16BIT:
                    words.append(_sign_extend(reader.read(16), 16, _WORD_BITS))
                elif prefix == _P_HALF_PADDED:
                    words.append(reader.read(16) << 16)
                elif prefix == _P_TWO_HALF_BYTES:
                    hi = _sign_extend(reader.read(8), 8, 16)
                    lo = _sign_extend(reader.read(8), 8, 16)
                    words.append((hi << 16) | lo)
                elif prefix == _P_REPEATED_BYTES:
                    byte = reader.read(8)
                    words.append(byte * 0x01010101)
                else:
                    words.append(reader.read(32))
        except EOFError as exc:
            raise CompressionError("truncated FPC payload") from exc
        if len(words) != _WORDS_PER_LINE:
            raise CompressionError("FPC payload decoded to wrong word count")
        return b"".join(word.to_bytes(4, "little") for word in words)

    def batch_sizes(self, lines):
        """Vectorized FPC sizes over a ``(n, 64)`` uint8 array.

        Per-word costs are a pure classification (the same prefix
        priority as :meth:`compress`); zero-run accounting walks the 16
        word columns once, charging a new 6-bit run token whenever a zero
        starts a run or extends one past the 8-word cap.
        """
        import numpy as np

        from repro.compression.batch import check_batch, finalize_sizes, words_le

        array = check_batch(lines)
        words = words_le(array, 4)
        zero = words == 0
        hi = words >> np.uint32(16)
        lo = words & np.uint32(0xFFFF)
        cost = np.select(
            [
                (words < 8) | (words >= 0xFFFFFFF8),
                (words < 0x80) | (words >= 0xFFFFFF80),
                (words < 0x8000) | (words >= 0xFFFF8000),
                lo == 0,
                ((hi < 0x80) | (hi >= 0xFF80)) & ((lo < 0x80) | (lo >= 0xFF80)),
                words == (words & np.uint32(0xFF)) * np.uint32(0x01010101),
            ],
            [7, 11, 19, 19, 19, 11],
            default=35,
        )
        cost = np.where(zero, 0, cost)
        n = array.shape[0]
        run_pos = np.zeros(n, dtype=np.int64)
        runs = np.zeros(n, dtype=np.int64)
        for column in range(_WORDS_PER_LINE):
            zeros_here = zero[:, column]
            runs += zeros_here & (run_pos % _MAX_ZERO_RUN == 0)
            run_pos = np.where(zeros_here, run_pos + 1, 0)
        return finalize_sizes(cost.sum(axis=1) + 6 * runs)

    @staticmethod
    def _is_two_half_bytes(word: int) -> bool:
        """Each 16-bit half is the sign extension of its low byte."""
        hi, lo = word >> 16, word & 0xFFFF
        return all(
            half == (_sign_extend(half & 0xFF, 8, 16)) for half in (hi, lo)
        )

    @staticmethod
    def _is_repeated_bytes(word: int) -> bool:
        """All four bytes of the word are identical."""
        byte = word & 0xFF
        return word == byte * 0x01010101

"""Shared helpers for building 64-byte cache-line test data."""

import struct

from hypothesis import strategies as st

LINE_SIZE = 64


def line_of_words(*words, width=4, byteorder="little"):
    """Build a 64-byte line from integer words, repeating the last word."""
    count = LINE_SIZE // width
    values = list(words) + [words[-1]] * (count - len(words))
    return b"".join(w.to_bytes(width, byteorder) for w in values[:count])


def zero_line():
    return b"\x00" * LINE_SIZE


def small_int_line(start=0, step=1):
    """Line of small 32-bit integers — highly FPC/BDI compressible."""
    return b"".join(
        struct.pack("<i", start + i * step) for i in range(LINE_SIZE // 4)
    )


def quad_friendly_line(variant=0):
    """Line that compresses small enough for 4:1 packing (12 zero words
    followed by four tiny values), mirroring the SMALL_INT data family."""
    values = [0] * 12 + [((variant + i) % 15) - 7 for i in range(4)]
    return b"".join(struct.pack("<i", v) for v in values)


def pointer_line(base=0x7FFF_AB00_0000, stride=64):
    """Line of 8-byte pointer-like values — BDI (B8D1/D2) territory."""
    return b"".join(
        struct.pack("<Q", base + i * stride) for i in range(LINE_SIZE // 8)
    )


def random_line(rng):
    """Uniformly random line — incompressible with high probability."""
    return bytes(rng.getrandbits(8) for _ in range(LINE_SIZE))


# Hypothesis strategies -------------------------------------------------

raw_lines = st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE)

small_word_lines = st.lists(
    st.integers(min_value=-128, max_value=127), min_size=16, max_size=16
).map(lambda ws: b"".join(struct.pack("<i", w) for w in ws))

delta_lines = st.tuples(
    st.integers(min_value=0, max_value=2**62),
    st.lists(st.integers(min_value=-100, max_value=100), min_size=8, max_size=8),
).map(
    lambda t: b"".join(
        struct.pack("<Q", (t[0] + d) % 2**64) for d in t[1]
    )
)

compressible_lines = st.one_of(
    st.just(zero_line()), small_word_lines, delta_lines
)

any_lines = st.one_of(raw_lines, compressible_lines)


class Versions:
    """A stand-in ``DataGenerator``: version ``n`` of line ``v`` is
    ``bytes([v, n])`` repeated to ``size`` bytes, and every render is
    logged in ``calls``."""

    def __init__(self, size=LINE_SIZE):
        self.size = size
        self.calls = []

    def line(self, vline, version=0):
        self.calls.append((vline, version))
        return bytes([vline % 256, version % 256]) * (self.size // 2)

"""Deterministic cache-line data generation with controlled compressibility.

The paper's workloads are real SPEC/GAP program slices; we replace them
with synthetic traces (DESIGN.md §4), which means *we* must supply the
byte values each line holds.  Compressibility is controlled through a
small set of pattern families chosen per page — matching the paper's
observation (and the LLP's premise) that lines within a page tend to
have similar compressibility:

=============  =================================  ========================
family         contents                           co-compressibility
=============  =================================  ========================
``ZERO``       all zeros                          4:1 (quad fits easily)
``SMALL_INT``  mostly-zero tiny 32-bit ints       4:1 (FPC ~10B/line)
``POINTER``    8-byte base + small deltas         2:1 (BDI ~20-27B/line)
``MEDIUM``     16-bit-range 32-bit ints           line-compressible but a
                                                  pair exceeds one slot
``BOUNDARY``   mixed 8/16-bit-range ints          a pair fits 64B but not
                                                  60B (marker reserve)
``RANDOM``     keyed-hash noise                   incompressible
=============  =================================  ========================

Generation is a pure function of (address, version, seed) so the
simulator can regenerate identical bytes anywhere and memoized
compression stays valid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.compression.base import LINE_SIZE
from repro.util.hashing import KeyedHash, mix64

LINES_PER_PAGE = 64


class PatternKind(Enum):
    ZERO = "zero"
    SMALL_INT = "small_int"
    POINTER = "pointer"
    MEDIUM = "medium"
    BOUNDARY = "boundary"
    RANDOM = "random"


@dataclass(frozen=True)
class DataProfile:
    """Distribution over pattern families, assigned page by page.

    ``noise`` is the per-line probability of deviating to RANDOM within an
    otherwise homogeneous page — it creates the occasional incompressible
    line that breaks a group apart (and exercises LLP mispredictions).
    """

    weights: Dict[PatternKind, float]
    noise: float = 0.001

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError("profile weights must sum to a positive value")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be a probability")

    def kind_for_page(self, page: int, seed: int) -> PatternKind:
        """Deterministically pick the page's family by weight."""
        total = sum(self.weights.values())
        draw = (mix64(page ^ seed ^ 0xA5A5) % (1 << 30)) / (1 << 30) * total
        acc = 0.0
        for kind, weight in self.weights.items():
            acc += weight
            if draw < acc:
                return kind
        return PatternKind.RANDOM

    def deviates(self, vline: int, seed: int) -> bool:
        """Whether the per-line noise draw turns this line RANDOM."""
        if self.noise > 0.0:
            draw = (mix64(vline ^ seed ^ 0x0F0F) % (1 << 30)) / (1 << 30)
            return draw < self.noise
        return False


# Canonical profiles used by the synthetic suites --------------------------

SPEC_LIKE = DataProfile(
    {
        PatternKind.ZERO: 0.20,
        PatternKind.SMALL_INT: 0.35,
        PatternKind.POINTER: 0.22,
        PatternKind.BOUNDARY: 0.08,
        PatternKind.MEDIUM: 0.07,
        PatternKind.RANDOM: 0.08,
    }
)

GRAPH_LIKE = DataProfile(
    {
        PatternKind.ZERO: 0.10,
        PatternKind.SMALL_INT: 0.15,
        PatternKind.POINTER: 0.25,
        PatternKind.BOUNDARY: 0.05,
        PatternKind.MEDIUM: 0.15,
        PatternKind.RANDOM: 0.30,
    },
    noise=0.02,
)

INCOMPRESSIBLE = DataProfile({PatternKind.RANDOM: 1.0}, noise=0.0)
ALL_ZERO = DataProfile({PatternKind.ZERO: 1.0}, noise=0.0)


class DataGenerator:
    """Pure-function line contents: ``data(vline, version)``.

    ``version`` counts stores to the line; bumping it changes the values
    while (usually) staying in the family.  ``write_scramble`` is the
    probability a store degrades the line to RANDOM — graph workloads
    update lines with poorly compressible values more often.
    """

    def __init__(self, profile: DataProfile, seed: int, write_scramble: float = 0.0) -> None:
        self.profile = profile
        self.seed = seed
        self.write_scramble = write_scramble
        self._hash = KeyedHash(seed ^ 0xDA7A)
        #: page -> pattern family (``DataProfile.kind_for_page`` is pure)
        self._page_kinds: Dict[int, PatternKind] = {}

    def kind(self, vline: int, version: int = 0) -> PatternKind:
        """The page's family (memoized), turned RANDOM by the per-line
        noise draw or, for a stored version, by the write-scramble draw."""
        page = vline // LINES_PER_PAGE
        base_kind = self._page_kinds.get(page)
        if base_kind is None:
            base_kind = self.profile.kind_for_page(page, self.seed)
            self._page_kinds[page] = base_kind
        if self.profile.deviates(vline, self.seed):
            base_kind = PatternKind.RANDOM
        if version > 0 and self.write_scramble > 0.0:
            draw = (mix64(vline ^ (version << 32) ^ self.seed) % (1 << 30)) / (1 << 30)
            if draw < self.write_scramble:
                return PatternKind.RANDOM
        return base_kind

    def line(self, vline: int, version: int = 0) -> bytes:
        """The 64 bytes this line holds at this version.

        Not memoized: a simulation asks for each ``(vline, version)`` once
        (a store's new version, or a line's first-touch contents), so a
        memo would only hold every rendered line for the whole run.
        """
        kind = self.kind(vline, version)
        nonce = mix64(vline ^ (version << 20) ^ self.seed)
        return render_pattern(kind, nonce, self._hash)


def render_pattern(kind: PatternKind, nonce: int, keyed: KeyedHash) -> bytes:
    """Materialise 64 bytes of the given family from a nonce."""
    if kind is PatternKind.ZERO:
        return b"\x00" * LINE_SIZE
    if kind is PatternKind.SMALL_INT:
        # sparse-array shape: a zero run followed by a few tiny values, so
        # the FPC size is stable across versions (a quad always fits)
        words = [0] * 12
        state = nonce
        for _ in range(4):
            state = mix64(state)
            words.append((state >> 8) % 15 - 7)  # in [-7, 7]
        return struct.pack("<16i", *words)
    if kind is PatternKind.POINTER:
        base = 0x7F0000000000 | ((nonce & 0xFFFF) << 20)
        values = []
        state = nonce
        for _ in range(8):
            state = mix64(state)
            values.append(base + (state % 120))  # deltas fit one byte
        return struct.pack("<8Q", *values)
    if kind is PatternKind.BOUNDARY:
        # 8 one-byte-range + 8 two-byte-range words: FPC encodes this in
        # exactly 240 bits (31B with the tag), so a *pair* sums to 62B —
        # it fits a bare 64-byte slot but not one with a 4-byte marker
        # reserved.  This family realises the paper's Fig. 6 gap between
        # "double 64" and "double 60".
        words = []
        state = nonce
        for i in range(16):
            state = mix64(state)
            if i % 2 == 0:
                magnitude = 9 + state % 90  # always the 8-bit FPC class
            else:
                magnitude = 300 + state % 29000  # always the 16-bit class
            words.append(magnitude if state & (1 << 40) else -magnitude)
        return struct.pack("<16i", *words)
    if kind is PatternKind.MEDIUM:
        words = []
        state = nonce
        for _ in range(16):
            state = mix64(state)
            words.append((state >> 4) % 60000 - 30000)  # 16-bit range
        return struct.pack("<16i", *words)
    # RANDOM: keyed noise, astronomically unlikely to hit any pattern
    base = keyed.hash64(nonce, tweak=0xBAD)
    return b"".join(mix64(base + i).to_bytes(8, "little") for i in range(8))

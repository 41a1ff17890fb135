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
compression stays valid.  Every draw is a SplitMix64 chain
(:func:`repro.util.hashing.mix64`); rendering runs the chains inline,
which ``tests/test_workloads.py`` holds to the ``mix64`` definition.
A :class:`DataGenerator` keeps the first-touch (version-0) lines it has
rendered; it belongs to its workload's
:class:`~repro.workloads.data.WorkloadData`, so those lines are kept as
long as that store is (DESIGN.md §14).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.compression.base import LINE_SIZE
from repro.util.hashing import KeyedHash, mix64

LINES_PER_PAGE = 64

_M64 = (1 << 64) - 1
#: draws compare a mix's low 30 bits against ``probability * 2**30``,
#: which is exactly ``(h % 2**30) / 2**30 < probability``
_DRAW_BITS = 1 << 30
_DRAW_MASK = _DRAW_BITS - 1

_ZERO_LINE = bytes(LINE_SIZE)
_PACK_16I = struct.Struct("<16i").pack
_PACK_SMALL_INTS = struct.Struct("<48x4i").pack  # 12 zero words, 4 ints
_PACK_8Q = struct.Struct("<8Q").pack


class PatternKind(Enum):
    ZERO = "zero"
    SMALL_INT = "small_int"
    POINTER = "pointer"
    MEDIUM = "medium"
    BOUNDARY = "boundary"
    RANDOM = "random"


# The members as module globals: on Python 3.11 a member read through its
# class takes ``EnumType.__getattr__``'s slow hook, and rendering and
# ``DataGenerator.kind`` read them per line.
_ZERO = PatternKind.ZERO
_SMALL_INT = PatternKind.SMALL_INT
_POINTER = PatternKind.POINTER
_MEDIUM = PatternKind.MEDIUM
_BOUNDARY = PatternKind.BOUNDARY
_RANDOM = PatternKind.RANDOM


@dataclass(frozen=True)
class DataProfile:
    """Distribution over pattern families, assigned page by page.

    ``noise`` is the per-line probability of deviating to RANDOM within an
    otherwise homogeneous page — it creates the occasional incompressible
    line that breaks a group apart (and exercises LLP mispredictions);
    :meth:`DataGenerator.kind` applies it.
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
        #: vline -> its first-touch (version-0) contents
        self._first_touch: Dict[int, bytes] = {}
        # the noise and write-scramble probabilities as draw cut-offs
        self._noise_cut = profile.noise * _DRAW_BITS
        self._scramble_cut = write_scramble * _DRAW_BITS

    def kind(self, vline: int, version: int = 0) -> PatternKind:
        """The page's family (memoized), turned RANDOM by the per-line
        noise draw or, for a stored version, by the write-scramble draw.

        The one definition of a line's family; both draws are ``mix64``
        run inline.
        """
        page = vline // LINES_PER_PAGE
        kind = self._page_kinds.get(page)
        if kind is None:
            kind = self.profile.kind_for_page(page, self.seed)
            self._page_kinds[page] = kind
        if self._noise_cut:
            h = (vline ^ self.seed ^ 0x0F0F) & _M64
            h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _M64
            if (h ^ (h >> 31)) & _DRAW_MASK < self._noise_cut:
                kind = _RANDOM
        if version > 0 and self._scramble_cut:
            h = (vline ^ (version << 32) ^ self.seed) & _M64
            h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _M64
            if (h ^ (h >> 31)) & _DRAW_MASK < self._scramble_cut:
                return _RANDOM
        return kind

    def line(self, vline: int, version: int = 0) -> bytes:
        """The 64 bytes this line holds at this version.

        Version 0, a line's first-touch contents, is memoized: every run
        of the workload reads the same first-touch lines.  A stored
        version is not: a run asks for each once and its trace record
        carries it, so a memo of it would never hit.
        """
        if not version:
            line = self._first_touch.get(vline)
            if line is not None:
                return line
        h = (vline ^ (version << 20) ^ self.seed) & _M64
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _M64
        line = render_pattern(self.kind(vline, version), h ^ (h >> 31), self._hash)
        if not version:
            self._first_touch[vline] = line
        return line

    def first_touch_lines(self) -> int:
        """How many first-touch lines the memo holds."""
        return len(self._first_touch)


def render_pattern(kind: PatternKind, nonce: int, keyed: KeyedHash) -> bytes:
    """Materialise 64 bytes of the given family from a nonce.

    Each family draws a chain of ``mix64`` values starting from the nonce
    (``s = mix64(s)`` per word); the chains are run inline.
    """
    if kind is _ZERO:
        return _ZERO_LINE
    s = nonce & _M64
    if kind is _SMALL_INT:
        # sparse-array shape: a zero run followed by a few tiny values, so
        # the FPC size is stable across versions (a quad always fits)
        words = []
        for _ in range(4):
            s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            s = (s ^ (s >> 27)) * 0x94D049BB133111EB & _M64
            s ^= s >> 31
            words.append((s >> 8) % 15 - 7)  # in [-7, 7]
        return _PACK_SMALL_INTS(*words)
    if kind is _POINTER:
        base = 0x7F0000000000 | ((nonce & 0xFFFF) << 20)
        values = []
        for _ in range(8):
            s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            s = (s ^ (s >> 27)) * 0x94D049BB133111EB & _M64
            s ^= s >> 31
            values.append(base + (s % 120))  # deltas fit one byte
        return _PACK_8Q(*values)
    if kind is _BOUNDARY:
        # 8 one-byte-range + 8 two-byte-range words: FPC encodes this in
        # exactly 240 bits (31B with the tag), so a *pair* sums to 62B —
        # it fits a bare 64-byte slot but not one with a 4-byte marker
        # reserved.  This family realises the paper's Fig. 6 gap between
        # "double 64" and "double 60".
        words = []
        for _ in range(8):
            s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            s = (s ^ (s >> 27)) * 0x94D049BB133111EB & _M64
            s ^= s >> 31
            magnitude = 9 + s % 90  # always the 8-bit FPC class
            words.append(magnitude if s & (1 << 40) else -magnitude)
            s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            s = (s ^ (s >> 27)) * 0x94D049BB133111EB & _M64
            s ^= s >> 31
            magnitude = 300 + s % 29000  # always the 16-bit class
            words.append(magnitude if s & (1 << 40) else -magnitude)
        return _PACK_16I(*words)
    if kind is _MEDIUM:
        words = []
        for _ in range(16):
            s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            s = (s ^ (s >> 27)) * 0x94D049BB133111EB & _M64
            s ^= s >> 31
            words.append((s >> 4) % 60000 - 30000)  # 16-bit range
        return _PACK_16I(*words)
    # RANDOM: keyed noise, astronomically unlikely to hit any pattern; word
    # i is mix64(base + i)
    base = keyed.hash64(nonce, 0xBAD)
    values = []
    for i in range(8):
        s = (base + i) & _M64
        s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        s = (s ^ (s >> 27)) * 0x94D049BB133111EB & _M64
        values.append(s ^ (s >> 31))
    return _PACK_8Q(*values)

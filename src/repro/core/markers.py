"""Inline-metadata markers (paper §IV-C, Figs. 10, 11, 13).

Compressed slots are required to end with a 4-byte *marker* whose value
identifies the compression level (2:1 or 4:1).  Slots whose previous
contents became stale after a relocation are overwritten with a 64-byte
*Invalid-Line marker* (Marker-IL).  All marker values are generated
per-line from a keyed hash so an adversary cannot force collisions
(paper: "Attack-Resilient Marker Codes").

An uncompressed line whose data coincidentally ends with a marker (or
equals Marker-IL) would be misinterpreted, so it is stored bit-inverted
and recorded in the Line Inversion Table; an inverted line's tail matches
the *complement* of a marker, which classification reports separately so
the controller can consult the LIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.compression.base import LINE_SIZE
from repro.core.types import Level
from repro.util.hashing import KeyedHash, mix64

MARKER_SIZE_DEFAULT = 4
"""4-byte markers suit a 16GB memory (2^28 lines => <1 expected collision);
the paper recommends 5 bytes for systems with hundreds of gigabytes."""

_TWEAK_PAIR = 1
_TWEAK_QUAD = 2
_TWEAK_INVALID = 3


class SlotKind(Enum):
    """Interpretation of a 64-byte slot read from memory."""

    UNCOMPRESSED = "uncompressed"
    PAIR = "pair"
    QUAD = "quad"
    INVALID = "invalid"
    #: tail matches the complement of a marker — line is uncompressed but
    #: may have been stored inverted; the LIT disambiguates.
    MAYBE_INVERTED = "maybe_inverted"


@dataclass(frozen=True)
class SlotClass:
    """Classification of one slot: its kind and the matched level, if any."""

    kind: SlotKind
    level: Optional[Level] = None


_INVERT_TABLE = bytes(i ^ 0xFF for i in range(256))


def invert(data: bytes) -> bytes:
    """Bitwise complement of a byte string (line inversion)."""
    return data.translate(_INVERT_TABLE)


#: The five possible classifications, shared by every ``classify`` call.
_QUAD_SLOT = SlotClass(SlotKind.QUAD, Level.QUAD)
_PAIR_SLOT = SlotClass(SlotKind.PAIR, Level.PAIR)
_INVALID_SLOT = SlotClass(SlotKind.INVALID)
_MAYBE_INVERTED_SLOT = SlotClass(SlotKind.MAYBE_INVERTED)
_UNCOMPRESSED_SLOT = SlotClass(SlotKind.UNCOMPRESSED)

#: Per-slot marker values, precomputed for the hot path:
#: ``(pair, quad, invalid, inv_pair, inv_quad, inv_invalid)``.
_SlotMarkers = Tuple[bytes, bytes, bytes, bytes, bytes, bytes]


class MarkerScheme:
    """Per-line marker generation and slot classification.

    ``key`` plays the role of the machine's secret marker key; calling
    :meth:`rekey` models the paper's LIT-overflow recovery that regenerates
    all marker values (§IV-C Option 2).  Marker values are memoized per
    slot because slot classification runs on every memory read.
    """

    def __init__(self, key: int = 0x5EED, marker_size: int = MARKER_SIZE_DEFAULT) -> None:
        if not 1 <= marker_size <= 8:
            raise ValueError("marker size must be 1..8 bytes")
        self.marker_size = marker_size
        self._generation = 0
        self._set_key(key)

    @property
    def generation(self) -> int:
        """Number of rekey events so far (0 initially)."""
        return self._generation

    def rekey(self) -> None:
        """Regenerate the secret key; all markers change (LIT overflow path)."""
        self._generation += 1
        self._set_key(self._hash.hash64(self._generation, tweak=0xDEAD))

    def _set_key(self, key: int) -> None:
        self._hash = KeyedHash(key)
        self._cache: Dict[int, _SlotMarkers] = {}

    # Marker values ------------------------------------------------------

    def _derive(self, loc: int) -> _SlotMarkers:
        """Compute the collision-free marker set for one slot.

        The pair marker, quad marker, their complements and the tail of
        Marker-IL must be pairwise distinct or classification would be
        ambiguous; the (1-in-2^32) pathological clash is resolved by
        bumping a deterministic retry counter.
        """
        size = self.marker_size
        # one keyed digest per slot seeds all three markers (cheap: marker
        # derivation runs once per slot touched); unpredictability still
        # rests on the key.  Marker-IL repeats one 8-byte block.
        seed = self._hash.hash64(loc, _TWEAK_INVALID)
        invalid = (seed.to_bytes(8, "little") * ((LINE_SIZE + 7) // 8))[:LINE_SIZE]
        inv_invalid = invalid.translate(_INVERT_TABLE)
        taken = [invalid[-size:], inv_invalid[-size:]]
        fresh = []
        for attempt in (_TWEAK_PAIR, _TWEAK_QUAD):
            while True:
                value = mix64(seed ^ attempt).to_bytes(8, "little")[:size]
                inverse = value.translate(_INVERT_TABLE)
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
            pair.translate(_INVERT_TABLE),
            quad.translate(_INVERT_TABLE),
            inv_invalid,
        )

    def _slot_markers(self, loc: int) -> _SlotMarkers:
        cached = self._cache.get(loc)
        if cached is None:
            cached = self._derive(loc)
            self._cache[loc] = cached
        return cached

    def marker(self, loc: int, level: Level) -> bytes:
        """The marker a compressed slot at ``loc`` must end with."""
        if level is Level.PAIR:
            return self._slot_markers(loc)[0]
        if level is Level.QUAD:
            return self._slot_markers(loc)[1]
        raise ValueError("uncompressed slots carry no marker")

    def invalid_marker(self, loc: int) -> bytes:
        """The 64-byte Invalid-Line marker (Marker-IL) for slot ``loc``."""
        return self._slot_markers(loc)[2]

    # Classification -----------------------------------------------------

    def classify(self, loc: int, slot: bytes) -> SlotClass:
        """Interpret the 64 bytes read from slot ``loc``.

        Order of checks mirrors the hardware: full-line Marker-IL first,
        then the compressed markers on the tail, then their complements
        (possible inversion), else plain uncompressed data.  The result is
        one of five shared :class:`SlotClass` values.
        """
        if len(slot) != LINE_SIZE:
            raise ValueError("slots are exactly 64 bytes")
        markers = self._cache.get(loc)
        if markers is None:
            markers = self._slot_markers(loc)
        pair, quad, invalid, inv_pair, inv_quad, inv_invalid = markers
        tail = slot[-self.marker_size :]
        if tail == quad:
            return _QUAD_SLOT
        if tail == pair:
            return _PAIR_SLOT
        if slot == invalid:
            return _INVALID_SLOT
        if tail == inv_quad or tail == inv_pair or slot == inv_invalid:
            return _MAYBE_INVERTED_SLOT
        return _UNCOMPRESSED_SLOT

    def collides(self, loc: int, line: bytes) -> bool:
        """True when uncompressed ``line`` would be misread at ``loc``.

        Only genuine marker matches (2:1, 4:1, Marker-IL) force inversion.
        A tail that happens to equal a marker's *complement* is stored
        as-is: reads classify it as possibly-inverted and the LIT (which
        will miss) resolves it to plain data — inverting it instead would
        manufacture a real marker and corrupt the line.
        """
        kind = self.classify(loc, line).kind
        return kind is SlotKind.PAIR or kind is SlotKind.QUAD or kind is SlotKind.INVALID

    def storage_bits(self) -> int:
        """On-chip storage for the global marker seeds (Table III).

        Two 4-byte compressed-line markers plus the 64-byte invalid marker,
        as provisioned in the paper's overhead table.
        """
        return (2 * self.marker_size + LINE_SIZE) * 8

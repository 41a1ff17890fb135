"""Inline-metadata markers (paper §IV-C, Figs. 10, 11, 13).

Compressed slots are required to end with a 4-byte *marker* whose value
identifies the compression level (2:1 or 4:1).  Slots whose previous
contents became stale after a relocation are overwritten with a 64-byte
*Invalid-Line marker* (Marker-IL).  All marker values are generated
per-line from a keyed hash so an adversary cannot force collisions
(paper: "Attack-Resilient Marker Codes").

The hardware recomputes a slot's markers from the key when it needs them
(Table III provisions 72 bytes of on-chip state).  This model memoizes
them instead, as one 16-byte record per touched slot at the default
4-byte marker: the pair marker, the quad marker and the 8-byte block
that Marker-IL repeats.  Marker-IL and every complement are derived from
the record when needed and never stored.

An uncompressed line whose data coincidentally ends with a marker (or
equals Marker-IL) would be misinterpreted, so it is stored bit-inverted
and recorded in the Line Inversion Table; an inverted line's tail matches
the *complement* of a marker, which classification reports separately so
the controller can consult the LIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.compression.base import LINE_SIZE
from repro.types import Level
from repro.util.hashing import KeyedHash, mix64

MARKER_SIZE_DEFAULT = 4
"""4-byte markers suit a 16GB memory (2^28 lines => <1 expected collision);
the paper recommends 5 bytes for systems with hundreds of gigabytes."""

_TWEAK_PAIR = 1
_TWEAK_QUAD = 2
_TWEAK_INVALID = 3

#: Marker-IL is its 8-byte seed block repeated over the line.
_BLOCK_SIZE = 8
_BLOCK_COPIES = LINE_SIZE // _BLOCK_SIZE


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


# The enum members the hot paths use, as module globals: Python 3.11's
# ``EnumType.__getattr__`` makes every read through the class slow.
_PAIR = Level.PAIR
_QUAD = Level.QUAD
_KIND_PAIR = SlotKind.PAIR
_KIND_QUAD = SlotKind.QUAD
_KIND_INVALID = SlotKind.INVALID

#: The five possible classifications, shared by every ``classify`` call.
_QUAD_SLOT = SlotClass(_KIND_QUAD, _QUAD)
_PAIR_SLOT = SlotClass(_KIND_PAIR, _PAIR)
_INVALID_SLOT = SlotClass(_KIND_INVALID)
_MAYBE_INVERTED_SLOT = SlotClass(SlotKind.MAYBE_INVERTED)
_UNCOMPRESSED_SLOT = SlotClass(SlotKind.UNCOMPRESSED)

#: One slot's marker record, ``pair + quad + block`` for marker size
#: ``s``: ``pair = rec[:s]``, ``quad = rec[s:2s]`` and ``block =
#: rec[-8:]``, so Marker-IL is ``block * 8`` and its tail is ``rec[-s:]``.
_SlotMarkers = bytes


class MarkerScheme:
    """Per-line marker generation and slot classification.

    ``key`` plays the role of the machine's secret marker key; calling
    :meth:`rekey` models the paper's LIT-overflow recovery that regenerates
    all marker values (§IV-C Option 2).  Slot classification runs on every
    memory read, so each touched slot's markers are memoized as one
    record (``_SlotMarkers``) until the next rekey.
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
        """Compute the collision-free marker record for one slot.

        The pair marker, quad marker, their complements and the tail of
        Marker-IL must be pairwise distinct or classification would be
        ambiguous; the (1-in-2^32) pathological clash is resolved by
        bumping a deterministic retry counter.
        """
        size = self.marker_size
        # one keyed digest per slot seeds all three markers (cheap: marker
        # derivation runs once per slot touched); unpredictability still
        # rests on the key.  Marker-IL repeats the digest's 8-byte block.
        seed = self._hash.hash64(loc, _TWEAK_INVALID)
        block = seed.to_bytes(_BLOCK_SIZE, "little")
        invalid_tail = block[-size:]
        taken = [invalid_tail, invalid_tail.translate(_INVERT_TABLE)]
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
        return fresh[0] + fresh[1] + block

    def _slot_markers(self, loc: int) -> _SlotMarkers:
        cached = self._cache.get(loc)
        if cached is None:
            cached = self._derive(loc)
            self._cache[loc] = cached
        return cached

    def marker(self, loc: int, level: Level) -> bytes:
        """The marker a compressed slot at ``loc`` must end with."""
        if level is _PAIR:
            return self._slot_markers(loc)[: self.marker_size]
        if level is _QUAD:
            size = self.marker_size
            return self._slot_markers(loc)[size : size + size]
        raise ValueError("uncompressed slots carry no marker")

    def invalid_marker(self, loc: int) -> bytes:
        """The 64-byte Invalid-Line marker (Marker-IL) for slot ``loc``."""
        return self._slot_markers(loc)[-_BLOCK_SIZE:] * _BLOCK_COPIES

    # Classification -----------------------------------------------------

    def classify(self, loc: int, slot: bytes) -> SlotClass:
        """Interpret the 64 bytes read from slot ``loc``.

        Checks run in this order: the quad marker and then the pair
        marker on the tail, the full-line Marker-IL, then the complements
        of all three (possible inversion), else plain uncompressed data.
        A full line is compared only when its tail already matches
        Marker-IL's.  The result is one of five shared :class:`SlotClass`
        values.
        """
        if len(slot) != LINE_SIZE:
            raise ValueError("slots are exactly 64 bytes")
        markers = self._cache.get(loc)
        if markers is None:
            markers = self._slot_markers(loc)
        size = self.marker_size
        tail = slot[-size:]
        quad = markers[size : size + size]
        if tail == quad:
            return _QUAD_SLOT
        pair = markers[:size]
        if tail == pair:
            return _PAIR_SLOT
        invalid_tail = markers[-size:]
        if tail == invalid_tail and slot == markers[-_BLOCK_SIZE:] * _BLOCK_COPIES:
            return _INVALID_SLOT
        tail = tail.translate(_INVERT_TABLE)
        if tail == quad or tail == pair:
            return _MAYBE_INVERTED_SLOT
        if (
            tail == invalid_tail
            and slot.translate(_INVERT_TABLE) == markers[-_BLOCK_SIZE:] * _BLOCK_COPIES
        ):
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
        return kind is _KIND_PAIR or kind is _KIND_QUAD or kind is _KIND_INVALID

    def storage_bits(self) -> int:
        """On-chip storage for the global marker seeds (Table III).

        Two 4-byte compressed-line markers plus the 64-byte invalid marker,
        as provisioned in the paper's overhead table.
        """
        return (2 * self.marker_size + LINE_SIZE) * 8

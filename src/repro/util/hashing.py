"""Keyed hashing used for per-line marker generation.

The paper generates per-line marker values with a cryptographically secure
keyed hash (it suggests DES, run off the critical path) so that an adversary
cannot craft data that collides with markers and floods the Line Inversion
Table.  The only properties the design relies on are (a) determinism given
the key, and (b) uniform, unpredictable output without the key.  We use a
SplitMix64-style finalizer mixed with a 128-bit key, which preserves those
statistical properties for simulation purposes (this is a stand-in, not a
security claim — see DESIGN.md §4).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a high-quality 64-bit bijective mixer."""
    value &= _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


class KeyedHash:
    """Deterministic keyed 64-bit hash ``H(key, message, tweak)``.

    ``tweak`` separates domains (e.g. the 2:1 marker, the 4:1 marker and
    the invalid-line marker are all derived from the same key but must be
    independent streams).
    """

    def __init__(self, key: int) -> None:
        self._k0 = mix64(key & _MASK64)
        self._k1 = mix64((key >> 64) ^ 0x9E3779B97F4A7C15)

    def hash64(self, message: int, tweak: int = 0) -> int:
        """Return a 64-bit digest of ``message`` under this key."""
        h = mix64(message ^ self._k0)
        h = mix64(h ^ (tweak * 0xD6E8FEB86659FD93 & _MASK64))
        return mix64(h ^ self._k1)

"""TMC address mapping over commodity memory (paper §II-B, Fig. 3).

Physical line addresses are grouped four at a time on naturally aligned
boundaries.  Within a group with base ``G`` (lines ``G..G+3``):

- **uncompressed** — every line lives in its home slot ``G+i``;
- **2:1** — the even-aligned pairs ``(G, G+1)`` and ``(G+2, G+3)`` each
  compress into the pair's first slot (``G`` and ``G+2``);
- **4:1** — all four lines compress into the group base slot ``G``.

A line therefore has at most three candidate locations, and the candidate
for a given compression level is a pure function of the address — this is
what lets the Line Location Predictor work: predicting the *level* is the
same as predicting the *location*.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.types import Level

GROUP_SIZE = 4
"""Lines per compression group (supports up to 4x compression)."""


def group_base(addr: int) -> int:
    """Base line address of the 4-line group containing ``addr``."""
    return addr & ~(GROUP_SIZE - 1)


def pair_base(addr: int) -> int:
    """Base line address of the 2-line pair containing ``addr``."""
    return addr & ~1


def group_lines(addr: int) -> List[int]:
    """All four line addresses in ``addr``'s group, in order."""
    base = group_base(addr)
    return [base + i for i in range(GROUP_SIZE)]


def pair_lines(addr: int) -> List[int]:
    """Both line addresses in ``addr``'s pair, in order."""
    base = pair_base(addr)
    return [base, base + 1]


def location_for(addr: int, level: Level) -> int:
    """Physical slot holding ``addr`` when stored at ``level``.

    A level's value is its slot's line count (1, 2 or 4), so the slot is
    ``addr`` aligned down to that count: the group base for QUAD, the pair
    base for PAIR, the home slot when uncompressed.
    """
    return addr & ~(level - 1)


def slot_members(loc: int, level: Level) -> List[int]:
    """The line addresses packed into slot ``loc`` at ``level``.

    Only meaningful when ``loc`` is a legal slot for ``level`` (group base
    for QUAD, pair base for PAIR).
    """
    return list(range(loc, loc + level))


def candidate_locations(addr: int) -> List[Tuple[int, Level]]:
    """Distinct ``(slot, level)`` candidates for ``addr``, deduplicated.

    Ordered from the most co-located level downwards.  Lines that share a
    slot across levels (e.g. the group base, whose location never changes)
    report each distinct slot once with the *highest* level that maps there,
    because the marker read from the slot disambiguates the rest.
    """
    quad = group_base(addr)
    pair = pair_base(addr)
    candidates = [(quad, Level.QUAD)]
    if pair != quad:
        candidates.append((pair, Level.PAIR))
    if addr != pair:
        candidates.append((addr, Level.UNCOMPRESSED))
    return candidates


def needs_prediction(addr: int) -> bool:
    """True when the line's location depends on its compressibility.

    The group base always resides at its own slot (paper: "there is no
    need for location prediction while accessing line A").
    """
    return addr & (GROUP_SIZE - 1) != 0

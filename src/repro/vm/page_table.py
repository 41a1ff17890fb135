"""Minimal virtual-memory model (paper §III-A).

The paper models virtual-to-physical translation so that "memory accesses
of different cores do not map to the same physical page" — and explicitly
nothing more; the OS provides no support for compression.  We mirror
that: each core owns a page table, frames are handed out on first touch,
and frame numbers are scattered pseudo-randomly over the physical space
so that DRAM bank/row behaviour is realistic while 4KB pages stay intact
(compression groups of 4 lines never straddle a page).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.util.hashing import mix64

LINES_PER_PAGE = 64  # 4KB pages / 64B lines; translate shifts by 6


class PageTable:
    """Per-core first-touch page allocation over a shared frame pool."""

    def __init__(self, capacity_lines: int, seed: int = 1234) -> None:
        if capacity_lines % LINES_PER_PAGE:
            raise ValueError("capacity must be whole pages")
        self._num_frames = capacity_lines // LINES_PER_PAGE
        self._seed = seed
        self._mappings: Dict[Tuple[int, int], int] = {}
        self._used_frames: Dict[int, Tuple[int, int]] = {}
        self._next_probe = 0

    def translate(self, core_id: int, vline: int) -> int:
        """Virtual line address -> physical line address (allocate on demand).

        A page is 64 lines, so the page is ``vline >> 6`` and the offset
        ``vline & 63``: ``divmod(vline, LINES_PER_PAGE)``, negatives too.
        """
        key = (core_id, vline >> 6)
        frame = self._mappings.get(key)
        if frame is None:
            frame = self._allocate(key)
        return (frame << 6) + (vline & 63)

    def _allocate(self, key: Tuple[int, int]) -> int:
        """Pick a pseudo-random free frame (linear probing on collision)."""
        if len(self._used_frames) >= self._num_frames:
            raise MemoryError("physical memory exhausted")
        core_id, vpage = key
        frame = mix64(self._seed ^ (core_id << 48) ^ vpage) % self._num_frames
        while frame in self._used_frames:
            frame = (frame + 1) % self._num_frames
        self._mappings[key] = frame
        self._used_frames[frame] = key
        return frame

    def reverse(self, frame: int) -> Tuple[int, int]:
        """Owner ``(core, vpage)`` of a frame (diagnostics)."""
        return self._used_frames[frame]

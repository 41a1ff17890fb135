"""Functional backing store: the actual bytes resident in DRAM.

The timing model (:mod:`repro.dram.system`) prices accesses; this class
holds contents.  It is deliberately dumb — a sparse map from physical
line address to 64 bytes — because *all* interpretation of those bytes
(markers, compression, inversion) belongs to the memory controller,
exactly as in the paper's commodity-DIMM setting: the DIMM stores and
returns 64-byte bursts and nothing more.

A never-written slot holds its first-touch contents, rendered from its
address.  :meth:`PhysicalMemory.read` renders and stores them;
:meth:`PhysicalMemory.read_deferred` hands them over unrendered, for a
controller that passes them to the LLC as they are: new pages are
installed uncompressed, so a never-written slot holds its own line
(DESIGN.md §14).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.compression.base import LINE_SIZE
from repro.types import Contents, FirstTouch

_ZERO_LINE = b"\x00" * LINE_SIZE


class PhysicalMemory:
    """Sparse functional model of main-memory contents.

    ``initial_content`` supplies the bytes of never-written slots lazily
    (default: zeros).  The simulator wires it to the workload's data
    generator so that read-only data has realistic compressibility, which
    models pages being installed in memory in uncompressed form — exactly
    the paper's install policy for new pages.
    """

    def __init__(
        self,
        capacity_lines: int = 1 << 28,
        initial_content: Optional[Callable[[int], bytes]] = None,
    ) -> None:
        self.capacity_lines = capacity_lines
        self._lines: Dict[int, bytes] = {}
        self._initial_content = initial_content
        #: ``_first_touch``, bound once rather than per deferral: every
        #: FirstTouch this memory hands out calls it
        self._render_first_touch = self._first_touch

    def read(self, line_addr: int) -> bytes:
        """Return the 64 bytes at ``line_addr``; a never-written slot's
        first-touch contents are rendered and stored."""
        self._check(line_addr)
        data = self._lines.get(line_addr)
        if data is not None:
            return data
        if self._initial_content is None:
            return _ZERO_LINE
        data = self._lines[line_addr] = self._first_touch(line_addr)
        return data

    def read_deferred(self, line_addr: int) -> Contents:
        """:meth:`read` for a reader that may never look at the bytes.

        A written or already stored slot returns its bytes; a
        never-written one returns a :class:`~repro.types.FirstTouch`,
        which renders the first-touch contents from the address when a
        record's ``data`` is first read.  Nothing is stored, and the
        deferral never reads the slot again, so it yields what
        :meth:`read` would have returned now, whatever is written there
        later.
        """
        if not 0 <= line_addr < self.capacity_lines:  # ``_check``, inline
            raise IndexError(f"line address {line_addr} out of range")
        data = self._lines.get(line_addr)
        if data is not None:
            return data
        if self._initial_content is None:
            return _ZERO_LINE
        return FirstTouch(self._render_first_touch, line_addr)

    def _first_touch(self, line_addr: int) -> bytes:
        data = self._initial_content(line_addr)
        if len(data) != LINE_SIZE:
            raise ValueError("initial_content must produce 64-byte lines")
        return data

    def write(self, line_addr: int, data: bytes) -> None:
        """Store 64 bytes at ``line_addr``."""
        self._check(line_addr)
        if len(data) != LINE_SIZE:
            raise ValueError(f"expected {LINE_SIZE} bytes, got {len(data)}")
        self._lines[line_addr] = bytes(data)

    def _check(self, line_addr: int) -> None:
        if not 0 <= line_addr < self.capacity_lines:
            raise IndexError(f"line address {line_addr} out of range")

    def resident_lines(self) -> Dict[int, bytes]:
        """Snapshot of every stored slot (for rekey sweeps): each written
        one, and each never-written one whose first-touch contents
        :meth:`read` rendered.  Slots read only by :meth:`read_deferred`
        are not in it."""
        return dict(self._lines)

    def __len__(self) -> int:
        return len(self._lines)

"""Baseline uncompressed memory controller.

One DRAM access per demanded line, one writeback per dirty eviction —
the reference every design in the paper is normalised against.

The controller never inspects the bytes it moves.  It reads a line with
:meth:`~repro.dram.storage.PhysicalMemory.read_deferred`, so a
never-written line reaches the LLC unrendered, and it writes a dirty
victim's contents back as the LLC holds them, so a store's deferred
contents (a :class:`~repro.types.StoredVersion`) go to memory
unrendered and come back the same way.  In a simulation no one renders
either (DESIGN.md §14).
"""

from __future__ import annotations

from repro.cache.cache import EvictedLine
from repro.core.base_controller import LLCView, MemoryController
from repro.types import Category, Level, ReadResult

# enum members as globals, not reads through their class (DESIGN.md §14)
_DATA_READ = Category.DATA_READ
_DATA_WRITE = Category.DATA_WRITE
_UNCOMPRESSED = Level.UNCOMPRESSED


class UncompressedController(MemoryController):
    """Conventional memory: lines live at their home slots, always."""

    name = "uncompressed"

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        completion = self.dram.access(addr, now, _DATA_READ)
        return ReadResult(addr, self.memory.read_deferred(addr), _UNCOMPRESSED, completion)

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        if evicted.dirty:
            self.dram.access(evicted.addr, now, _DATA_WRITE)
            self.memory.write(evicted.addr, evicted._data)

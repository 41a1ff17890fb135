"""Idealised TMC: compression benefits with zero bandwidth overheads.

The paper's upper bound (§II-E, Figs. 5 and 15): a compressed memory that
"does not maintain any metadata and simply streams out lines in the same
location that are compressed together", and that incurs *no* bandwidth
overhead of any kind — no metadata lookups, no mispredicted accesses, no
compressed writebacks of clean data, no invalidates.  A read of a line
whose neighbour group is currently compressible streams out the whole
group in one access; everything else behaves like uncompressed memory.

Functionally, lines always live at their home slots (the co-location is
"oracular"), which is what makes the design overhead-free and also why it
is unimplementable in real hardware.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.cache import EvictedLine
from repro.compression.base import LINE_SIZE, CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.packing import payload_budget
from repro.types import Category, Level, ReadResult
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem

# enum members as globals, not reads through their class (DESIGN.md §14)
_DATA_READ = Category.DATA_READ
_DATA_WRITE = Category.DATA_WRITE
_UNCOMPRESSED = Level.UNCOMPRESSED

#: The oracle's checks in order, each a level and its payload budget: the
#: same budget as the real designs (payloads + length bytes + marker
#: reserve), so the co-fetch opportunity matches what PTMC could achieve
#: with perfect knowledge.
_CHECKS = tuple((level, payload_budget(level)) for level in (Level.QUAD, Level.PAIR))


class IdealTMCController(MemoryController):
    """Oracle TMC: maximum co-fetch, zero overhead (paper's "Ideal TMC")."""

    name = "ideal_tmc"

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        compressor: Optional[CompressionAlgorithm] = None,
    ) -> None:
        super().__init__(memory, dram)
        self.compressor = compressor if compressor is not None else HybridCompressor()
        self._write_credit: dict = {}

    def _level(self, addr: int) -> Tuple[Level, Dict[int, bytes]]:
        """The level ``addr``'s group would compress to now, and the
        contents of the members read to decide it.

        The quad is checked first, then ``addr``'s pair: a check passes
        when every member is compressible and their sizes stay within the
        level's budget, and stops at the first member that is not or
        overruns it.  The pair check reuses the sizes the quad check
        took, so each member is read and sized at most once, and the
        slots read are those the two checks read one after the other.
        """
        read = self.memory.read
        compressed_size = self.compressor.compressed_size
        lines: Dict[int, bytes] = {}
        sizes: Dict[int, int] = {}
        for level, budget in _CHECKS:
            base = addr & ~(level - 1)  # address_map.location_for
            total = 0
            for member in range(base, base + level):
                size = sizes.get(member)
                if size is None:
                    data = lines[member] = read(member)
                    size = sizes[member] = compressed_size(data)
                if size >= LINE_SIZE:
                    break
                total += size
                if total > budget:
                    break
            else:
                return level, lines
        return _UNCOMPRESSED, lines

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        completion = self.dram.access(addr, now, _DATA_READ)
        level, lines = self._level(addr)
        if level is _UNCOMPRESSED:
            data = lines.get(addr)
            if data is None:  # both checks stopped before reaching it
                data = self.memory.read(addr)
            return ReadResult(addr, data, level, completion)
        base = addr & ~(level - 1)
        extras = {m: lines[m] for m in range(base, base + level) if m != addr}
        completion += DECOMPRESSION_LATENCY
        return ReadResult(addr, lines[addr], level, completion, 1, extras)

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        """Dirty writebacks only; compressible groups combine their writes.

        The oracle also gets compression's *write*-bandwidth benefit: when
        a dirty line's group is currently co-compressible, one 64-byte
        write covers the whole group, so subsequent dirty evictions of its
        members are absorbed (a per-slot write credit, one per other
        member of the slot, models this without tracking timing).
        """
        if not evicted.dirty:
            return  # clean evictions are free, as in the baseline
        addr = evicted.addr
        self.memory.write(addr, evicted.data)
        level, _ = self._level(addr)
        slot, credit = addr & ~(level - 1), level - 1
        remaining = self._write_credit.get(slot, 0)
        if remaining > 0:
            self._write_credit[slot] = remaining - 1
            return  # absorbed by the group's combined write
        self.dram.access(addr, now, _DATA_WRITE)
        if credit:
            self._write_credit[slot] = credit

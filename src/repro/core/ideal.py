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

from typing import Optional

from repro.cache.cache import EvictedLine
from repro.compression.base import CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.packing import payload_budget
from repro.types import Category, Level, ReadResult
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem


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

    def _fits(self, addrs, level: Level) -> bool:
        """Oracle check: would these lines compress into one slot?

        Uses the same size budget as the real designs (payloads + length
        bytes + marker reserve) so the co-fetch opportunity matches what
        PTMC could achieve with perfect knowledge.
        """
        budget = payload_budget(level)
        total = 0
        for addr in addrs:
            size = self.compressor.compressed_size(self.memory.read(addr))
            if size >= 64:
                return False
            total += size
            if total > budget:
                return False
        return True

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        completion = self.dram.access(addr, now, Category.DATA_READ)
        group = address_map.group_lines(addr)
        if self._fits(group, Level.QUAD):
            co_fetched, level = group, Level.QUAD
        else:
            pair = address_map.pair_lines(addr)
            if self._fits(pair, Level.PAIR):
                co_fetched, level = pair, Level.PAIR
            else:
                co_fetched, level = [addr], Level.UNCOMPRESSED
        extras = {m: self.memory.read(m) for m in co_fetched if m != addr}
        if level is not Level.UNCOMPRESSED:
            completion += DECOMPRESSION_LATENCY
        return ReadResult(addr, self.memory.read(addr), level, completion, 1, extras)

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        """Dirty writebacks only; compressible groups combine their writes.

        The oracle also gets compression's *write*-bandwidth benefit: when
        a dirty line's group is currently co-compressible, one 64-byte
        write covers the whole group, so subsequent dirty evictions of its
        members are absorbed (a per-slot write credit models this without
        tracking timing).
        """
        if not evicted.dirty:
            return  # clean evictions are free, as in the baseline
        self.memory.write(evicted.addr, evicted.data)
        group = address_map.group_lines(evicted.addr)
        if self._fits(group, Level.QUAD):
            slot, credit = address_map.group_base(evicted.addr), 3
        else:
            pair = address_map.pair_lines(evicted.addr)
            if self._fits(pair, Level.PAIR):
                slot, credit = address_map.pair_base(evicted.addr), 1
            else:
                slot, credit = evicted.addr, 0
        remaining = self._write_credit.get(slot, 0)
        if remaining > 0:
            self._write_credit[slot] = remaining - 1
            return  # absorbed by the group's combined write
        self.dram.access(evicted.addr, now, Category.DATA_WRITE)
        if credit:
            self._write_credit[slot] = credit

"""Prior-art TMC with a memory-mapped metadata table (paper §II-C/D).

This is the conventional compressed-memory organisation PTMC is compared
against throughout the paper (Figs. 4, 5, 12): per-line Compression
Status Information (CSI, 2 bits) lives in a dedicated region of memory
and is cached on-chip in a 32KB metadata cache.  Every read must consult
the CSI to learn the line's location and interpretation; a metadata-cache
miss costs a DRAM access — the bandwidth bloat the paper eliminates.

Because the CSI is authoritative there are no markers, no invalidates and
no mispredictions; stale copies left behind by relocation are harmless.
One 64-byte metadata line covers 256 data lines (four consecutive pages),
capturing the spatial locality the paper grants prior designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.cache import Cache, EvictedLine
from repro.compression.base import CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.packing import decompress_group, plan_group
from repro.types import Category, Level, ReadResult
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.telemetry import StatScope

#: data lines one metadata line covers: 2-bit CSI x 256 lines = 64 bytes
LINES_PER_METADATA_LINE = 256

_PLACEHOLDER = b"\x00" * 64
"""Metadata-cache lines model presence only; the controller keeps the
table's contents."""


@dataclass(frozen=True)
class MetadataTableConfig:
    """Metadata-cache organisation."""

    cache_bytes: int = 32 * 1024
    cache_ways: int = 8


class MetadataCache(Cache):
    """The on-chip cache of a memory-mapped metadata table.

    The table sits at the top of memory, one metadata line per
    ``lines_per_line`` data lines.  :meth:`touch` reaches the line
    covering a data line through the cache: a miss costs a
    ``METADATA_READ``, and a dirty victim a ``METADATA_WRITE``.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        name: str,
        lines_per_line: int,
        memory: PhysicalMemory,
        dram: DRAMSystem,
    ) -> None:
        super().__init__(size_bytes, ways, name=name)
        self._lines_per_line = lines_per_line
        self._top = memory.capacity_lines - 1
        self._dram = dram

    def touch(self, line_addr: int, now: int, dirty: bool) -> None:
        """Access the metadata of ``line_addr``, dirtying it if ``dirty``."""
        meta_addr = self._top - line_addr // self._lines_per_line
        hit = self.lookup(meta_addr)
        if hit is not None:
            hit.dirty = hit.dirty or dirty
            return
        self._dram.access(meta_addr, now, Category.METADATA_READ)
        victim = self.fill(meta_addr, _PLACEHOLDER, dirty=dirty)
        if victim is not None and victim.dirty:
            self._dram.access(victim.addr, now, Category.METADATA_WRITE)


def _no_marker(slot: int, level: Level) -> bytes:
    """The CSI, not the slot, records a slot's level."""
    return b""


class MetadataTableController(MemoryController):
    """Table-based TMC: CSI in memory + on-chip metadata cache."""

    name = "tmc_table"

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        compressor: Optional[CompressionAlgorithm] = None,
        config: MetadataTableConfig = MetadataTableConfig(),
    ) -> None:
        super().__init__(memory, dram)
        self.config = config
        self.compressor = compressor if compressor is not None else HybridCompressor()
        self._csi: Dict[int, Level] = {}
        self.metadata_cache = MetadataCache(
            config.cache_bytes,
            config.cache_ways,
            "metadata_cache",
            LINES_PER_METADATA_LINE,
            memory,
            dram,
        )
        self.clean_writebacks = 0

    # Metadata plumbing ----------------------------------------------------

    def _csi_level(self, addr: int) -> Level:
        return self._csi.get(addr, Level.UNCOMPRESSED)

    def _csi_set(self, addr: int, level: Level) -> bool:
        """Update the table; returns whether the stored value changed."""
        if self._csi_level(addr) == level:
            return False
        if level is Level.UNCOMPRESSED:
            self._csi.pop(addr, None)
        else:
            self._csi[addr] = level
        return True

    def _state(self, line: EvictedLine) -> EvictedLine:
        """``line`` as an eviction sees it: its residency comes from the
        authoritative CSI, not the LLC tag, so skip-write decisions can
        never desync."""
        addr = line.addr
        return EvictedLine(
            addr, line.data, line.dirty, self._csi_level(addr), line.core_id
        )

    def register_stats(self, scope: StatScope) -> None:
        """Expose the metadata cache (``tmc_table.metadata_cache.*``)."""
        scope.counter("clean_writebacks", lambda: self.clean_writebacks)
        self.metadata_cache.register_stats(scope.scope("metadata_cache"))

    # Read path ------------------------------------------------------------

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        self.metadata_cache.touch(addr, now, dirty=False)
        level = self._csi_level(addr)
        loc = address_map.location_for(addr, level)
        completion = self.dram.access(loc, now, Category.DATA_READ)
        slot = self.memory.read(loc)
        if level is Level.UNCOMPRESSED:
            return ReadResult(addr=addr, data=slot, level=level, completion=completion)
        members = address_map.slot_members(loc, level)
        lines = decompress_group(self.compressor, slot, level)
        extras = {m: line for m, line in zip(members, lines) if m != addr}
        return ReadResult(
            addr=addr,
            data=lines[members.index(addr)],
            level=level,
            completion=completion + DECOMPRESSION_LATENCY,
            extra_lines=extras,
        )

    # Eviction path ----------------------------------------------------------

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        gang = self._collect_gang(evicted, llc, now)
        candidates: Dict[int, EvictedLine] = dict(gang)
        for neighbour in address_map.group_lines(evicted.addr):
            if neighbour in candidates:
                continue
            resident = llc.probe(neighbour)
            if resident is not None:
                candidates[neighbour] = self._state(resident)

        # PTMC's placement with empty markers; a compressed unit must
        # involve a line that is leaving, and gangs its partners out
        base = address_map.group_base(evicted.addr)
        csi_dirty = False
        for level, slot, packed in plan_group(self.compressor, base, candidates, _no_marker):
            if level is Level.UNCOMPRESSED:
                if slot not in gang:
                    continue  # resident neighbour not compacted: leave it be
            else:
                members = range(slot, slot + level)
                if gang.keys().isdisjoint(members):
                    continue  # don't compact groups unrelated to the victim
                for member in members:
                    if member not in gang:
                        llc.force_evict(member)
                        gang[member] = candidates[member]
            csi_dirty |= self._write_unit(level, slot, packed, gang, now)
        if csi_dirty:
            self.metadata_cache.touch(evicted.addr, now, dirty=True)

    def _collect_gang(
        self, evicted: EvictedLine, llc: LLCView, now: int
    ) -> Dict[int, EvictedLine]:
        """Ganged eviction driven by the authoritative CSI."""
        gang: Dict[int, EvictedLine] = {evicted.addr: self._state(evicted)}
        frontier = [evicted.addr]
        while frontier:
            addr = frontier.pop()
            level = gang[addr].fill_level
            if level is Level.UNCOMPRESSED:
                continue
            slot = address_map.location_for(addr, level)
            for member in address_map.slot_members(slot, level):
                if member in gang:
                    continue
                line = llc.force_evict(member)
                if line is not None:
                    gang[member] = self._state(line)
                else:
                    # partner uncached: recover from the compressed slot (RMW),
                    # one read per missing member
                    self.dram.access(slot, now, Category.MAINTENANCE)
                    lines = decompress_group(
                        self.compressor, self.memory.read(slot), level
                    )
                    gang[member] = EvictedLine(
                        member, lines[member - slot], False, level
                    )
                frontier.append(member)
        return gang

    def _write_unit(
        self,
        level: Level,
        slot: int,
        packed: Optional[bytes],
        gang: Dict[int, EvictedLine],
        now: int,
    ) -> bool:
        """Write one unit and update the CSI; returns whether CSI changed."""
        members = address_map.slot_members(slot, level)
        states = [gang[a] for a in members]
        any_dirty = any(s.dirty for s in states)
        updates = [self._csi_set(a, level) for a in members]  # no short-circuit
        changed = any(updates)
        if level is Level.UNCOMPRESSED:
            state = states[0]
            relocated = state.fill_level is not Level.UNCOMPRESSED
            if not state.dirty and not relocated:
                return changed
            category = Category.DATA_WRITE if state.dirty else Category.CLEAN_WRITEBACK
            self.dram.access(slot, now, category)
            self.memory.write(slot, state.data)
        else:
            unchanged = all(s.fill_level == level for s in states)
            if unchanged and not any_dirty:
                return changed
            category = Category.DATA_WRITE if any_dirty else Category.CLEAN_WRITEBACK
            self.dram.access(slot, now, category)
            self.memory.write(slot, packed)
        if category is Category.CLEAN_WRITEBACK:
            self.clean_writebacks += 1
        return changed

    def storage_bits(self) -> Dict[str, int]:
        """On-chip cost: the 32KB metadata cache dominates."""
        return {"metadata_cache": self.config.cache_bytes * 8}

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
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import Cache, EvictedLine
from repro.compression.base import CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.packing import compress_group, decompress_group
from repro.types import Category, Level, ReadResult, WriteResult
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.telemetry import StatScope

_EMPTY_MARKER = b""


@dataclass(frozen=True)
class MetadataTableConfig:
    """Metadata-cache and table organisation."""

    cache_bytes: int = 32 * 1024
    cache_ways: int = 8
    lines_per_metadata_slot: int = 256  # 2 bits x 256 lines = 64 bytes
    decompression_latency: int = DECOMPRESSION_LATENCY


@dataclass
class _LineState:
    addr: int
    data: bytes
    dirty: bool
    fill_level: Level


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
        self.metadata_cache = Cache(
            config.cache_bytes, config.cache_ways, name="metadata_cache"
        )
        self.clean_writebacks = 0

    # Metadata plumbing ----------------------------------------------------

    def _metadata_addr(self, line_addr: int) -> int:
        """Physical slot of the metadata line covering ``line_addr``."""
        index = line_addr // self.config.lines_per_metadata_slot
        return self.memory.capacity_lines - 1 - index

    def _touch_metadata(self, line_addr: int, now: int, dirty: bool) -> None:
        """Access the CSI through the metadata cache, charging DRAM on miss."""
        meta_addr = self._metadata_addr(line_addr)
        hit = self.metadata_cache.lookup(meta_addr)
        if hit is not None:
            hit.dirty = hit.dirty or dirty
            return
        self.dram.access(meta_addr, now, Category.METADATA_READ)
        victim = self.metadata_cache.fill(meta_addr, _placeholder, dirty=dirty)
        if victim is not None and victim.dirty:
            self.dram.access(victim.addr, now, Category.METADATA_WRITE)

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

    @property
    def metadata_hit_rate(self) -> float:
        return self.metadata_cache.hit_rate

    def register_stats(self, scope: StatScope) -> None:
        """Expose the metadata cache (``tmc_table.metadata_cache.*``)."""
        scope.counter("clean_writebacks", lambda: self.clean_writebacks)
        self.metadata_cache.register_stats(scope.scope("metadata_cache"))

    # Read path ------------------------------------------------------------

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        self._touch_metadata(addr, now, dirty=False)
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
            completion=completion + self.config.decompression_latency,
            extra_lines=extras,
        )

    # Eviction path ----------------------------------------------------------

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> WriteResult:
        result = WriteResult()
        gang = self._collect_gang(evicted, llc, result, now)
        candidates: Dict[int, _LineState] = dict(gang)
        for neighbour in address_map.group_lines(evicted.addr):
            if neighbour in candidates:
                continue
            resident = llc.probe(neighbour)
            if resident is not None:
                # previous residency comes from the authoritative CSI, not
                # the LLC tag, so skip-write decisions can never desync
                candidates[neighbour] = _LineState(
                    neighbour, resident.data, resident.dirty, self._csi_level(neighbour)
                )

        units = []
        for unit in self._plan_placement(evicted.addr, candidates):
            level, slot, members, packed = unit
            if level is Level.UNCOMPRESSED and members[0] not in gang:
                continue
            if level is not Level.UNCOMPRESSED and not any(m in gang for m in members):
                continue
            units.append(unit)
            if level is not Level.UNCOMPRESSED:
                for member in members:
                    if member not in gang:
                        llc.force_evict(member)
                        gang[member] = candidates[member]
                        result.ganged.append(member)
        result.level = max(
            (level for level, _, _, _ in units), default=Level.UNCOMPRESSED
        )

        csi_dirty = False
        for level, slot, members, packed in units:
            csi_dirty |= self._write_unit(level, slot, members, packed, gang, now, result)
        if csi_dirty:
            self._touch_metadata(evicted.addr, now, dirty=True)
        return result

    def _collect_gang(
        self, evicted: EvictedLine, llc: LLCView, result: WriteResult, now: int
    ) -> Dict[int, _LineState]:
        """Ganged eviction driven by the authoritative CSI."""
        gang: Dict[int, _LineState] = {
            evicted.addr: _LineState(
                evicted.addr, evicted.data, evicted.dirty, self._csi_level(evicted.addr)
            )
        }
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
                    gang[member] = _LineState(
                        member, line.data, line.dirty, self._csi_level(member)
                    )
                    result.ganged.append(member)
                    frontier.append(member)
                else:
                    # partner uncached: recover from the compressed slot (RMW)
                    self.dram.access(slot, now, Category.MAINTENANCE)
                    lines = decompress_group(
                        self.compressor, self.memory.read(slot), level
                    )
                    members_all = address_map.slot_members(slot, level)
                    gang[member] = _LineState(
                        member, lines[members_all.index(member)], False, level
                    )
                    frontier.append(member)
        return gang

    def _plan_placement(
        self, addr: int, candidates: Dict[int, _LineState]
    ) -> List[Tuple[Level, int, List[int], Optional[bytes]]]:
        base = address_map.group_base(addr)
        group = address_map.group_lines(addr)
        if all(a in candidates for a in group):
            packed = compress_group(
                self.compressor, [candidates[a].data for a in group], _EMPTY_MARKER
            )
            if packed is not None:
                return [(Level.QUAD, base, group, packed)]
        units: List[Tuple[Level, int, List[int], Optional[bytes]]] = []
        for pair_start in (base, base + 2):
            pair = [pair_start, pair_start + 1]
            present = [a for a in pair if a in candidates]
            if len(present) == 2:
                packed = compress_group(
                    self.compressor, [candidates[a].data for a in pair], _EMPTY_MARKER
                )
                if packed is not None:
                    units.append((Level.PAIR, pair_start, pair, packed))
                    continue
            for a in present:
                units.append((Level.UNCOMPRESSED, a, [a], None))
        return units

    def _write_unit(
        self,
        level: Level,
        slot: int,
        members: List[int],
        packed: Optional[bytes],
        gang: Dict[int, _LineState],
        now: int,
        result: WriteResult,
    ) -> bool:
        """Write one unit and update the CSI; returns whether CSI changed."""
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
        result.writes += 1
        if category is Category.CLEAN_WRITEBACK:
            result.clean_writebacks += 1
            self.clean_writebacks += 1
        return changed

    def storage_bits(self) -> Dict[str, int]:
        """On-chip cost: the 32KB metadata cache dominates."""
        return {"metadata_cache": self.config.cache_bytes * 8}


_placeholder = b"\x00" * 64
"""Metadata-cache lines model presence only; contents live in ``_csi``."""

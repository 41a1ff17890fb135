"""MemZip-style TMC on non-commodity memory (paper §I, §II-B).

MemZip (Shafiee et al., HPCA 2014) is the prior Transparent
Memory-Compression design the paper positions itself against.  It keeps
every line at its home location but stores it *compressed*, streaming out
only as many bursts as the compressed size needs — which requires
non-commodity DIMMs (the whole line in one chip, variable burst lengths)
and still needs a metadata table to know each line's burst count before
issuing the read.

This controller models that organisation: per-line size classes in a
memory-mapped table with an on-chip metadata cache, and data accesses
whose bus occupancy scales with the compressed size (in 8-byte beats).
It gets *latency/bandwidth* benefits per access but no neighbour
co-fetch, and it pays the same metadata traffic that motivates PTMC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.cache import EvictedLine
from repro.compression.base import LINE_SIZE, CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.metadata_table import MetadataCache
from repro.types import Category, Level, ReadResult
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.telemetry import StatScope

#: data lines one metadata line covers: 4-bit burst count x 128 lines = 64 bytes
LINES_PER_METADATA_LINE = 128


@dataclass(frozen=True)
class MemZipConfig:
    """Metadata-cache organisation."""

    cache_bytes: int = 32 * 1024
    cache_ways: int = 8


class MemZipController(MemoryController):
    """Per-line compressed storage with variable burst lengths."""

    name = "memzip"

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        compressor: Optional[CompressionAlgorithm] = None,
        config: MemZipConfig = MemZipConfig(),
    ) -> None:
        super().__init__(memory, dram)
        self.config = config
        self.compressor = compressor if compressor is not None else HybridCompressor()
        #: burst count (8-byte beats, 1..8) per line; authoritative table
        self._bursts: Dict[int, int] = {}
        self.metadata_cache = MetadataCache(
            config.cache_bytes,
            config.cache_ways,
            "memzip_metadata",
            LINES_PER_METADATA_LINE,
            memory,
            dram,
        )

    def register_stats(self, scope: StatScope) -> None:
        """Expose the metadata cache (``memzip.metadata_cache.*``).

        Whole-run window: MemZip has always reported its metadata hit
        rate over the entire run, warmup included, so the counters stay
        un-windowed to preserve that accounting.
        """
        self.metadata_cache.register_stats(
            scope.scope("metadata_cache"), windowed=False
        )

    def _burst_count(self, addr: int) -> int:
        return self._bursts.get(addr, 8)

    # Read path ------------------------------------------------------------

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        self.metadata_cache.touch(addr, now, dirty=False)
        bursts = self._burst_count(addr)
        completion = self.dram.access(
            addr, now, Category.DATA_READ, burst_bytes=bursts * 8
        )
        raw = self.memory.read(addr)
        if bursts == 8:
            data = raw
        else:
            # compressed slot layout: [payload length][payload][padding]
            payload = raw[1 : 1 + raw[0]]
            data = self.compressor.decompress(payload)
            completion += DECOMPRESSION_LATENCY
        return ReadResult(
            addr=addr, data=data, level=Level.UNCOMPRESSED, completion=completion
        )

    # Eviction path ----------------------------------------------------------

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        if not evicted.dirty:
            return  # compressed image in memory is still valid
        payload, size = self.compressor.compress_and_size(evicted.data)
        if payload is not None and size + 1 <= 56:
            stored = bytes([len(payload)]) + payload
            bursts = max(1, (len(stored) + 7) // 8)
            slot = stored.ljust(LINE_SIZE, b"\x00")
        else:
            bursts = 8
            slot = evicted.data
        previous = self._burst_count(evicted.addr)
        self._bursts[evicted.addr] = bursts
        self.dram.access(
            evicted.addr, now, Category.DATA_WRITE, burst_bytes=bursts * 8
        )
        self.memory.write(evicted.addr, slot)
        self.metadata_cache.touch(evicted.addr, now, dirty=bursts != previous)

    def storage_bits(self) -> Dict[str, int]:
        return {"metadata_cache": self.config.cache_bytes * 8}

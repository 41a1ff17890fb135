"""Memory-controller interface shared by all designs under study.

A controller sits between the LLC and DRAM.  The simulator calls
:meth:`read_line` on an LLC miss and :meth:`handle_eviction` when the LLC
displaces a line.  Controllers own all interpretation of memory contents
(compression, markers, metadata); the DRAM below them stores opaque
64-byte slots and prices accesses.

``LLCView`` is the narrow window a controller gets into the LLC: PTMC's
eviction path must check whether a victim's group neighbours are resident
(to compact them) and force them out (ganged eviction).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional

from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.telemetry import StatScope
from repro.types import ReadResult

if TYPE_CHECKING:  # import kept lazy to avoid a cache <-> core cycle
    from repro.cache.cache import EvictedLine

DECOMPRESSION_LATENCY = 5
"""Cycles added when the demanded line arrives compressed (paper §III-A)."""


class LLCView(ABC):
    """What a memory controller may observe/do in the LLC."""

    @abstractmethod
    def probe(self, addr: int) -> Optional[EvictedLine]:
        """Peek at a resident line (no LRU side effects), or ``None``."""

    @abstractmethod
    def force_evict(self, addr: int) -> Optional[EvictedLine]:
        """Remove a line for ganged eviction, returning its final state."""

    @abstractmethod
    def is_sampled_set(self, addr: int) -> bool:
        """Whether the line maps to a Dynamic-PTMC sampled LLC set."""


class NullLLCView(LLCView):
    """An empty LLC — used by unit tests and by flush-time evictions."""

    def probe(self, addr: int) -> Optional[EvictedLine]:
        return None

    def force_evict(self, addr: int) -> Optional[EvictedLine]:
        return None

    def is_sampled_set(self, addr: int) -> bool:
        return False


class MemoryController(ABC):
    """Base class wiring a controller to its DRAM timing and storage."""

    name: str = "base"

    def __init__(self, memory: PhysicalMemory, dram: DRAMSystem) -> None:
        self.memory = memory
        self.dram = dram

    @abstractmethod
    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        """Service an LLC read miss for ``addr``."""

    @abstractmethod
    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        """Service an LLC eviction (clean or dirty).

        What it costs shows in the DRAM categories and the design's
        counters; the lines it gangs out have left ``llc``."""

    def register_stats(self, scope: StatScope) -> None:
        """Register this design's counters under its registry namespace.

        The base controller has none; designs with statistics override
        this and add theirs (one line per counter).
        """

    def storage_bits(self) -> Dict[str, int]:
        """Per-structure on-chip storage budget (Table III)."""
        return {}

    def total_storage_bytes(self) -> float:
        return sum(self.storage_bits().values()) / 8.0

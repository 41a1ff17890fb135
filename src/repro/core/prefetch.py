"""Next-line prefetching on uncompressed memory (paper Table VI).

The paper contrasts PTMC's *bandwidth-free* adjacent-line installs with a
conventional next-line prefetcher, which obtains the adjacent line at the
cost of an extra DRAM access.  On bandwidth-bound workloads that extra
traffic backfires — the comparison shows why getting neighbours "for
free" out of a compressed slot matters.
"""

from __future__ import annotations

from repro.core.base_controller import LLCView, MemoryController
from repro.types import _NO_EXTRA_LINES, Category, Level, ReadResult
from repro.cache.cache import EvictedLine
from repro.telemetry import StatScope

# enum members as globals, not reads through their class (DESIGN.md §14)
_DATA_READ = Category.DATA_READ
_DATA_WRITE = Category.DATA_WRITE
_PREFETCH_READ = Category.PREFETCH_READ
_UNCOMPRESSED = Level.UNCOMPRESSED


class NextLinePrefetchController(MemoryController):
    """Uncompressed memory + always-on next-line prefetch into the LLC."""

    name = "nextline_prefetch"

    def __init__(self, memory, dram):
        super().__init__(memory, dram)
        self.prefetches_issued = 0

    #: lines per 4KB page; next-line prefetchers do not cross page
    #: boundaries (the next physical page belongs to an unrelated frame)
    LINES_PER_PAGE = 64

    def register_stats(self, scope: StatScope) -> None:
        """Expose the prefetch counter (``nextline_prefetch.*``)."""
        scope.counter("prefetches_issued", lambda: self.prefetches_issued)

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        completion = self.dram.access(addr, now, _DATA_READ)
        extras = _NO_EXTRA_LINES
        next_addr = addr + 1
        # no prefetch past the end of memory, across a page boundary, or of
        # a line the LLC already holds
        if (
            next_addr < self.memory.capacity_lines
            and next_addr % self.LINES_PER_PAGE != 0
            and llc.probe(next_addr) is None
        ):
            self.dram.access(next_addr, now, _PREFETCH_READ)
            # co-fetched lines are bytes to every reader of ``extra_lines``
            extras = {next_addr: self.memory.read(next_addr)}
            self.prefetches_issued += 1
        # the demanded line, like the uncompressed baseline's, may reach
        # the LLC unrendered
        return ReadResult(
            addr, self.memory.read_deferred(addr), _UNCOMPRESSED, completion, 1, extras
        )

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        if evicted.dirty:
            self.dram.access(evicted.addr, now, _DATA_WRITE)
            # as the uncompressed baseline: a store's contents go back as
            # the LLC holds them, deferred or not
            self.memory.write(evicted.addr, evicted._data)

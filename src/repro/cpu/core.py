"""Trace-driven core model with bounded miss-level parallelism.

The paper simulates 8 four-wide out-of-order cores; what its results
depend on is the cores' memory behaviour, so this model keeps exactly
that (DESIGN.md §4): non-memory instructions retire at the pipeline
width, memory operations are issued to the cache hierarchy in trace
order, and up to ``mlp`` of them may be outstanding at once — issuing
past that stalls the core until the oldest completes.  A core's clock
therefore advances from compute time plus exposed memory latency, which
is where bandwidth-induced queueing shows up as slowdown.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.trace import TraceRecord
from repro.telemetry import StatScope
from repro.vm.page_table import PageTable


class CoreModel:
    """One core replaying its trace through the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceRecord],
        hierarchy: CacheHierarchy,
        page_table: PageTable,
        width: int = 4,
        mlp: int = 8,
    ) -> None:
        if width < 1 or mlp < 1:
            raise ValueError("width and mlp must be positive")
        self.core_id = core_id
        self.trace = iter(trace)
        self.hierarchy = hierarchy
        self.page_table = page_table
        self.width = width
        self.mlp = mlp
        self.time = 0
        self.instructions = 0
        self.mem_ops = 0
        self.done = False
        self._outstanding: Deque[int] = deque()

    def register_stats(self, scope: StatScope) -> None:
        """Expose progress counters (``core.<id>.*`` in the registry).

        ``time`` and the retirement counts only ever advance, so the
        registry's windowed delta yields measured-phase cycles and
        instructions directly.
        """
        scope.counter("cycles", lambda: self.time)
        scope.counter("instructions", lambda: self.instructions)
        scope.counter("mem_ops", lambda: self.mem_ops)

    def step(self) -> bool:
        """Issue the next trace record; returns False when the trace ends."""
        record = next(self.trace, None)
        if record is None:
            self._drain()
            self.done = True
            return False
        # front-end: retire the gap instructions at full width
        time = self.time + max(1, record.gap // self.width)
        self.instructions += record.instructions
        self.mem_ops += 1
        # stall if the miss window is full
        outstanding = self._outstanding
        while len(outstanding) >= self.mlp:
            oldest = outstanding.popleft()
            if oldest > time:
                time = oldest
        self.time = time
        paddr = self.page_table.translate(self.core_id, record.vline)
        completion = self.hierarchy.access(
            self.core_id, paddr, record.is_write, time, record.write_data
        ).completion
        if completion > time:
            outstanding.append(completion)
        return True

    def _drain(self) -> None:
        """Wait for all outstanding accesses at the end of the trace."""
        for completion in self._outstanding:
            if completion > self.time:
                self.time = completion
        self._outstanding.clear()

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle (after the trace finishes)."""
        return self.instructions / self.time if self.time else 0.0

"""Memory-access traces driving the cores.

A trace is an iterable of :class:`TraceRecord`: "after ``gap`` non-memory
instructions, perform this load/store to this virtual line".  Stores carry
the new 64-byte contents, because compressibility is a property of real
data values and the whole system under study manipulates real bytes.

Traces come from the synthetic workload generators
(:mod:`repro.workloads`) or can be built by hand / replayed from lists in
tests and examples.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One memory operation in program order.

    An immutable named tuple: the generators build one per simulated
    access, and a core unpacks it in one step.
    """

    gap: int
    """Non-memory instructions retired since the previous memory op."""

    is_write: bool
    vline: int
    """Virtual line address (64-byte granularity)."""

    write_data: Optional[bytes] = None
    """New line contents for stores; ``None`` for loads."""

    @property
    def instructions(self) -> int:
        """Instructions this record accounts for (gap + the memory op)."""
        return self.gap + 1


def trace_from_lists(
    addresses: Iterable[int], gap: int = 3, write_every: int = 0
) -> List[TraceRecord]:
    """Convenience builder for tests: loads (or periodic stores of zeros)."""
    records = []
    for i, addr in enumerate(addresses):
        is_write = write_every > 0 and (i + 1) % write_every == 0
        data = b"\x00" * 64 if is_write else None
        records.append(TraceRecord(gap, is_write, addr, data))
    return records


class TraceStats:
    """Running statistics over a consumed trace."""

    def __init__(self) -> None:
        self.records = 0
        self.instructions = 0
        self.writes = 0

    def observe(self, record: TraceRecord) -> None:
        self.records += 1
        self.instructions += record.instructions
        if record.is_write:
            self.writes += 1


def iter_with_stats(trace: Iterable[TraceRecord], stats: TraceStats) -> Iterator[TraceRecord]:
    """Yield records while accumulating statistics."""
    for record in trace:
        stats.observe(record)
        yield record

"""The trace record driving the cores.

A trace is an iterable of :class:`TraceRecord`: "after ``gap`` non-memory
instructions, perform this load/store to this virtual line".  Stores carry
the new line contents, because compressibility is a property of real
data values and the whole system under study manipulates real bytes.  A
generator's store carries them deferred (a
:class:`~repro.types.StoredVersion`), rendered only if a controller reads
them; a record built by hand may carry the 64 bytes themselves.

Records come from the synthetic workload generators
(:mod:`repro.workloads`), from stored traces replayed by
:mod:`repro.traces` (the one on-disk trace format), or from lists built
by hand in tests.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from repro.types import Contents


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

    write_data: Optional[Contents] = None
    """New line contents for stores, as bytes or deferred (a generator's
    records hold a :class:`~repro.types.StoredVersion`, whose ``render()``
    gives the bytes); ``None`` for loads."""

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

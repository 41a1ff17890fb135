"""Shared enums and record types for the memory-compression controllers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Dict, List


class Level(IntEnum):
    """Compression level of a line's residency in memory.

    The value equals the number of lines co-located in one 64-byte slot,
    matching the paper's "uncompressed / 2-to-1 / 4-to-1" terminology.
    """

    UNCOMPRESSED = 1
    PAIR = 2
    QUAD = 4


class Category(Enum):
    """Bandwidth accounting buckets for DRAM accesses.

    These are exactly the stack components the paper's bandwidth plots use:
    Fig. 4 splits table-based TMC into data / additional writes / metadata,
    and Fig. 14 splits PTMC into data / clean-evict+invalidate / mispredict.
    """

    DATA_READ = "data_read"
    DATA_WRITE = "data_write"
    METADATA_READ = "metadata_read"
    METADATA_WRITE = "metadata_write"
    MISPREDICT_READ = "mispredict_read"
    CLEAN_WRITEBACK = "clean_writeback"
    INVALIDATE_WRITE = "invalidate_write"
    PREFETCH_READ = "prefetch_read"
    MAINTENANCE = "maintenance"

    # Members are singletons compared by identity, so an identity hash is
    # consistent with equality.  It keeps the per-access category counting
    # and write test in C rather than in ``Enum.__hash__``.
    __hash__ = object.__hash__

    @property
    def is_write(self) -> bool:
        return self in WRITE_CATEGORIES


#: Categories that move data *to* memory (buffered by the DRAM model).
WRITE_CATEGORIES = frozenset(
    {
        Category.DATA_WRITE,
        Category.METADATA_WRITE,
        Category.CLEAN_WRITEBACK,
        Category.INVALIDATE_WRITE,
    }
)

#: Categories that exist only because compression is enabled; the paper's
#: Dynamic-PTMC counts these as the "bandwidth cost of compression".
COMPRESSION_COST_CATEGORIES = frozenset(
    {Category.MISPREDICT_READ, Category.CLEAN_WRITEBACK, Category.INVALIDATE_WRITE}
)


@dataclass(slots=True)
class ReadResult:
    """Outcome of a controller read: the demanded line plus free co-fetches.

    ``extra_lines`` are neighbours streamed out of the same 64-byte slot at
    zero bandwidth cost (the paper installs them in L3).  ``accesses`` is
    the number of DRAM accesses performed, and ``completion`` the cycle at
    which the demanded data is available (after decompression latency).
    Slotted, and built positionally on the hot path (fields in this order).
    """

    addr: int
    data: bytes
    level: Level
    completion: int
    accesses: int = 1
    extra_lines: Dict[int, bytes] = field(default_factory=dict)
    mispredicted: bool = False


@dataclass(slots=True)
class WriteResult:
    """Outcome of a controller eviction/writeback operation (slotted, like
    :class:`ReadResult`)."""

    writes: int = 0
    invalidates: int = 0
    clean_writebacks: int = 0
    level: Level = Level.UNCOMPRESSED
    #: line addresses whose LLC copies must also be dropped (ganged eviction)
    ganged: List[int] = field(default_factory=list)

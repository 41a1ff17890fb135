"""Shared enums and record types for the memory-compression controllers."""

from __future__ import annotations

from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Union

from repro.compression.base import LINE_SIZE


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

class FirstTouch:
    """The contents of a never-written memory slot, not rendered yet.

    :meth:`~repro.dram.storage.PhysicalMemory.read_deferred` hands one
    out instead of the bytes.  A line record holding it (a
    :class:`ReadResult` or a ``CacheLine``) calls :meth:`render` the
    first time its ``data`` is read and keeps the bytes from then on.
    """

    __slots__ = ("_render", "line_addr")

    def __init__(self, render: Callable[[int], bytes], line_addr: int) -> None:
        self._render = render
        self.line_addr = line_addr

    def render(self) -> bytes:
        """The slot's first-touch bytes, rendered from its address."""
        return self._render(self.line_addr)

    def __repr__(self) -> str:
        return f"FirstTouch(line_addr={self.line_addr:#x})"


class StoredVersion:
    """A store's new contents, not rendered yet: version ``version`` of
    virtual line ``vline``, as ``data`` (a
    :class:`~repro.workloads.data_patterns.DataGenerator`) renders it.

    A trace generator puts one in a store's record instead of the bytes.
    It travels as the contents of the L3 record the store updates and,
    once a dirty eviction writes it, of the memory slot.  :meth:`render`
    calls ``data.line`` (the instance attribute, looked up when it
    renders), checks the length and keeps the bytes, so however many
    records and slots hold it, it renders at most once.
    """

    __slots__ = ("data", "vline", "version", "_line")

    def __init__(self, data, vline: int, version: int) -> None:
        self.data = data
        self.vline = vline
        self.version = version
        self._line: Optional[bytes] = None

    def render(self) -> bytes:
        """The 64 bytes of this version of the line."""
        line = self._line
        if line is None:
            line = self.data.line(self.vline, self.version)
            if len(line) != LINE_SIZE:
                raise ValueError(f"expected {LINE_SIZE} bytes, got {len(line)}")
            self._line = line
        return line

    def __repr__(self) -> str:
        return f"StoredVersion(vline={self.vline:#x}, version={self.version})"


#: What a line record holds as its contents: the bytes, or a deferral.
Contents = Union[bytes, FirstTouch, StoredVersion]


def _rendered(record) -> bytes:
    data = record._data
    if data.__class__ is FirstTouch or data.__class__ is StoredVersion:
        data = record._data = data.render()
    return data


def _replace(record, data: Contents) -> None:
    record._data = data


#: ``data`` of a line record: its 64 bytes, always.  The record keeps its
#: contents in the ``_data`` slot, which may hold a :class:`FirstTouch`
#: or a :class:`StoredVersion` until the first read of ``data`` renders
#: it; the cache hierarchy moves ``_data`` from a read into its L3 record,
#: and a store's contents into the record it updates, without rendering.
line_data = property(_rendered, _replace, doc="The line's 64 bytes.")

#: ``extra_lines`` of a read that co-fetches nothing: one shared, read-only
#: empty mapping rather than a fresh dict per read.
_NO_EXTRA_LINES: Mapping[int, bytes] = MappingProxyType({})


class ReadResult:
    """Outcome of a controller read: the demanded line plus free co-fetches.

    ``extra_lines`` are neighbours streamed out of the same 64-byte slot at
    zero bandwidth cost (the paper installs them in L3).  ``accesses`` is
    the number of DRAM accesses performed, and ``completion`` the cycle at
    which the demanded data is available (after decompression latency).
    ``data`` is the demanded line's bytes (see :data:`line_data`); the
    values of ``extra_lines`` are bytes.  Slotted, and built positionally
    on the hot path (fields in this order).
    """

    __slots__ = (
        "addr",
        "_data",
        "level",
        "completion",
        "accesses",
        "extra_lines",
        "mispredicted",
    )

    def __init__(
        self,
        addr: int,
        data: Contents,
        level: Level,
        completion: int,
        accesses: int = 1,
        extra_lines: Mapping[int, bytes] = _NO_EXTRA_LINES,
        mispredicted: bool = False,
    ) -> None:
        self.addr = addr
        self._data = data
        self.level = level
        self.completion = completion
        self.accesses = accesses
        self.extra_lines = extra_lines
        self.mispredicted = mispredicted

    data = line_data

    def __repr__(self) -> str:
        return (
            f"ReadResult(addr={self.addr!r}, data={self._data!r}, "
            f"level={self.level!r}, completion={self.completion!r}, "
            f"accesses={self.accesses!r}, extra_lines={self.extra_lines!r}, "
            f"mispredicted={self.mispredicted!r})"
        )

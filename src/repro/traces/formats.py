"""Streaming parsers and writers for memory-access trace formats.

Real traces arrive in two shapes (DESIGN.md §12):

- **Text** — ChampSim/Pin-style records, one access per line::

      r 0x7f8a12340
      W 140737488355328 128
      0x7f8a12380            # bare address defaults to a read

  The access kind is ``r``/``w`` (case-insensitive; ``read``/``write``
  and ``ld``/``st`` aliases accepted), the address is hex or decimal
  *byte* address, and the optional third field is an access size in
  bytes — accesses spanning several 64-byte lines expand to one record
  per line touched.  ``#`` starts a comment.

- **Binary** — the compact canonical encoding this subsystem stores:
  the :data:`MAGIC` header followed by one ``<BQ`` struct per record
  (``flags`` bit 0 = write, then the 64-bit line address).

Either shape may additionally be gzip-compressed; :func:`sniff_format`
looks at magic bytes, never at file extensions.  Parsing is streaming
(constant memory per record) and every text-parse error carries its
1-based line number.  ``strict`` mode raises on the first bad line;
``lenient`` mode skips bad lines and counts them.
"""

from __future__ import annotations

import gzip
import io
import struct
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, List, Optional, Tuple

#: One canonical access: ``(is_write, line_address)``.  Line addresses
#: are 64-byte-granular (byte address // 64), matching ``TraceRecord.vline``.
Access = Tuple[bool, int]

#: Cache-line size the canonical records are normalised to.
LINE_BYTES = 64

#: File header of the canonical binary encoding (versioned).
MAGIC = b"PTMCTRACEv1\n"

#: Per-record binary layout: u8 flags (bit 0: write), u64 line address.
_RECORD = struct.Struct("<BQ")

#: gzip files start with these two bytes.
_GZIP_MAGIC = b"\x1f\x8b"

#: Text tokens naming each access kind.
_READ_TOKENS = frozenset({"r", "read", "ld", "load"})
_WRITE_TOKENS = frozenset({"w", "write", "st", "store"})

#: Largest line address the binary record can carry.
MAX_LINE_ADDR = (1 << 64) - 1


class TraceParseError(ValueError):
    """A trace line (or binary record) that could not be parsed.

    ``lineno`` is the 1-based source line for text input, ``None`` for
    binary streams (where ``offset`` positions the failure instead).
    """

    def __init__(self, message: str, lineno: Optional[int] = None) -> None:
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno


@dataclass
class ParseStats:
    """What one parse pass saw (surfaced by ingest diagnostics)."""

    records: int = 0
    errors: int = 0
    #: first few (lineno, message) diagnostics, for error reporting
    samples: List[Tuple[Optional[int], str]] = field(default_factory=list)

    def note_error(self, exc: TraceParseError, keep: int = 5) -> None:
        self.errors += 1
        if len(self.samples) < keep:
            self.samples.append((exc.lineno, str(exc)))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def parse_text_line(text: str, lineno: int) -> List[Access]:
    """Parse one text line into zero or more accesses.

    Returns ``[]`` for blank lines and comments; raises
    :class:`TraceParseError` (tagged with ``lineno``) otherwise.
    """
    body = text.split("#", 1)[0].strip()
    if not body:
        return []
    parts = body.split()
    if len(parts) == 1:
        kind_token, addr_text, size_text = "r", parts[0], None
    elif len(parts) == 2:
        kind_token, addr_text, size_text = parts[0], parts[1], None
    elif len(parts) == 3:
        kind_token, addr_text, size_text = parts
    else:
        raise TraceParseError(f"expected 'r/w <addr> [size]', got {body!r}", lineno)
    kind = kind_token.lower()
    if kind in _WRITE_TOKENS:
        is_write = True
    elif kind in _READ_TOKENS:
        is_write = False
    else:
        raise TraceParseError(f"unknown access kind {kind_token!r}", lineno)
    try:
        address = int(addr_text, 0)
    except ValueError:
        raise TraceParseError(f"bad address {addr_text!r}", lineno) from None
    if address < 0:
        raise TraceParseError(f"negative address {addr_text!r}", lineno)
    size = 1
    if size_text is not None:
        try:
            size = int(size_text, 0)
        except ValueError:
            raise TraceParseError(f"bad access size {size_text!r}", lineno) from None
        if size < 1:
            raise TraceParseError(f"non-positive access size {size}", lineno)
    first = address // LINE_BYTES
    last = (address + size - 1) // LINE_BYTES
    if last > MAX_LINE_ADDR:
        raise TraceParseError(f"address {addr_text!r} exceeds 64-bit lines", lineno)
    return [(is_write, line) for line in range(first, last + 1)]


def parse_text(
    lines: Iterable[str],
    mode: str = "strict",
    stats: Optional[ParseStats] = None,
) -> Iterator[Access]:
    """Stream accesses out of a text trace.

    ``mode="strict"`` raises :class:`TraceParseError` on the first bad
    line; ``mode="lenient"`` skips bad lines, counting them in ``stats``.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', not {mode!r}")
    for lineno, raw in enumerate(lines, start=1):
        try:
            accesses = parse_text_line(raw, lineno)
        except TraceParseError as exc:
            if mode == "strict":
                raise
            if stats is not None:
                stats.note_error(exc)
            continue
        for access in accesses:
            if stats is not None:
                stats.records += 1
            yield access


# ---------------------------------------------------------------------------
# Canonical binary format
# ---------------------------------------------------------------------------


def encode_records(accesses: Iterable[Access]) -> bytes:
    """Canonical binary encoding (the content that gets hashed/stored)."""
    pack = _RECORD.pack
    return MAGIC + b"".join(
        pack(1 if is_write else 0, line) for is_write, line in accesses
    )


def decode_records(
    stream: IO[bytes], stats: Optional[ParseStats] = None
) -> Iterator[Access]:
    """Stream accesses out of a canonical binary trace."""
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceParseError(f"bad binary trace magic {magic!r}")
    offset = len(MAGIC)
    size = _RECORD.size
    unpack = _RECORD.unpack
    while True:
        chunk = stream.read(size)
        if not chunk:
            return
        if len(chunk) != size:
            raise TraceParseError(f"truncated record at byte offset {offset}")
        flags, line = unpack(chunk)
        if flags > 1:
            raise TraceParseError(f"unknown record flags {flags:#x} at offset {offset}")
        offset += size
        if stats is not None:
            stats.records += 1
        yield (bool(flags & 1), line)


# ---------------------------------------------------------------------------
# Container sniffing (gzip / binary / text)
# ---------------------------------------------------------------------------


def sniff_format(data: bytes) -> str:
    """``"binary"`` or ``"text"`` for (already decompressed) trace bytes."""
    return "binary" if data.startswith(MAGIC) else "text"


def decompress_if_gzip(data: bytes) -> bytes:
    """Transparently unwrap a gzip container (magic-sniffed, not by name)."""
    if data.startswith(_GZIP_MAGIC):
        try:
            return gzip.decompress(data)
        except (OSError, EOFError) as exc:
            raise TraceParseError(f"corrupt gzip container: {exc}") from None
    return data


def parse_bytes(
    data: bytes,
    fmt: str = "auto",
    mode: str = "strict",
    stats: Optional[ParseStats] = None,
) -> Iterator[Access]:
    """Parse a whole trace payload in any supported container/format.

    ``fmt`` is ``auto`` (sniff), ``text`` or ``binary``; gzip wrapping is
    always detected regardless of ``fmt``.
    """
    data = decompress_if_gzip(data)
    if fmt == "auto":
        fmt = sniff_format(data)
    if fmt == "binary":
        yield from decode_records(io.BytesIO(data), stats=stats)
    elif fmt == "text":
        text = data.decode("utf-8", errors="replace")
        yield from parse_text(text.splitlines(), mode=mode, stats=stats)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; choose auto/text/binary")


def format_text(accesses: Iterable[Access]) -> str:
    """Render accesses back as canonical text (one ``r/w 0x... `` per line)."""
    return "".join(
        f"{'w' if is_write else 'r'} {line * LINE_BYTES:#x}\n"
        for is_write, line in accesses
    )


__all__ = [
    "Access",
    "LINE_BYTES",
    "MAGIC",
    "ParseStats",
    "TraceParseError",
    "decode_records",
    "decompress_if_gzip",
    "encode_records",
    "format_text",
    "parse_bytes",
    "parse_text",
    "parse_text_line",
    "sniff_format",
]

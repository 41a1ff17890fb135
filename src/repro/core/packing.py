"""Packing compressed neighbour lines into a single 64-byte slot.

A compressed slot holds 2 or 4 lines' payloads plus the inline marker
(paper Fig. 10).  The layout is self-describing given the count implied
by the marker:

``[len_0 .. len_{n-1}] [payload_0 .. payload_{n-1}] [zero pad] [marker]``

One length byte per member is charged against the 64-byte budget, so a
pair must compress to ``64 - 4 - 2 = 58`` payload bytes and a quad to
``64 - 4 - 4 = 56`` — the spirit of the paper's "60 bytes of usable
space once the 4-byte marker is reserved".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.compression.base import LINE_SIZE, CompressionAlgorithm, CompressionError
from repro.core.types import Level


def payload_budget(level: Level, marker_size: int = 4) -> int:
    """Usable payload bytes in one slot at ``level``."""
    return LINE_SIZE - marker_size - int(level)


def pack_slot(
    payloads: Sequence[bytes], marker: bytes
) -> Optional[bytes]:
    """Assemble a compressed slot, or ``None`` if the payloads don't fit."""
    count = len(payloads)
    if count != 2 and count != 4:
        raise ValueError("slots hold 2 or 4 compressed lines")
    total = count + sum(map(len, payloads)) + len(marker)
    if total > LINE_SIZE:
        return None
    # every payload is shorter than the slot now, so its length fits a byte
    lengths = bytes(map(len, payloads))
    if 0 in lengths:
        raise ValueError("payloads must be 1..255 bytes")
    return b"".join((lengths, *payloads, bytes(LINE_SIZE - total), marker))


def unpack_slot(slot: bytes, level: Level) -> List[bytes]:
    """Split a compressed slot back into its member payloads."""
    if len(slot) != LINE_SIZE:
        raise ValueError("slots are exactly 64 bytes")
    count = int(level)
    if count not in (2, 4):
        raise CompressionError("only pair/quad slots can be unpacked")
    lengths = slot[:count]
    payloads = []
    pos = count
    for length in lengths:
        if length == 0 or pos + length > LINE_SIZE:
            raise CompressionError("corrupt slot header")
        payloads.append(slot[pos : pos + length])
        pos += length
    return payloads


def compress_group(
    algorithm: CompressionAlgorithm,
    lines: Sequence[bytes],
    marker: bytes,
) -> Optional[bytes]:
    """Compress 2 or 4 neighbour lines into one slot, or ``None``.

    This is the check the memory controller performs at LLC eviction:
    can this group fit one 64-byte slot including the marker?

    When the algorithm keeps a size memo (``cached_size``), known sizes
    answer the fit question without materialising any payload.  The
    reject conditions replicate the slow path exactly: a member of size
    ``LINE_SIZE`` is one ``compress`` would refuse (every algorithm
    returns ``None`` rather than a >= 64-byte payload), and the budget
    test is the same inequality :func:`pack_slot` applies — so the fast
    path can only skip work, never change the answer.
    """
    sizer = getattr(algorithm, "cached_size", None)
    if sizer is not None:
        total = len(marker) + len(lines)
        for line in lines:
            size = sizer(line)
            if size is None:
                break  # unknown member: fall through to the slow path
            if size >= LINE_SIZE:
                return None  # incompressible member
            total += size
        else:
            if total > LINE_SIZE:
                return None
    payloads = []
    for line in lines:
        payload = algorithm.compress(line)
        if payload is None:
            return None
        payloads.append(payload)
    return pack_slot(payloads, marker)


def decompress_group(
    algorithm: CompressionAlgorithm, slot: bytes, level: Level
) -> List[bytes]:
    """Recover all member lines of a compressed slot, in group order."""
    return [algorithm.decompress(p) for p in unpack_slot(slot, level)]

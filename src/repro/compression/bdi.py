"""Base-Delta-Immediate (BDI) compression.

BDI (Pekhimenko et al., PACT 2012) represents a cache line as one base
value plus small per-element deltas.  The "immediate" part is an implicit
second base of zero: each element stores either ``base + delta`` or
``0 + delta``, selected by a per-element bitmask.  We implement the full
set of encodings from the paper: all-zeros, repeated 8-byte value, and the
six (base-size, delta-size) combinations B8D1/B8D2/B8D4/B4D1/B4D2/B2D1.

Payload layout (self-describing, all sizes charged):
``[1B encoding id][base (k bytes)][mask ((n+7)//8 bytes)][deltas (n*d bytes)]``
where ``n = 64 / k`` elements.  Zeros/repeat encodings shrink accordingly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.compression.base import LINE_SIZE, CompressionAlgorithm, CompressionError

_ENC_ZEROS = 0
_ENC_REPEAT = 1
# (encoding id, base bytes, delta bytes)
_DELTA_ENCODINGS: Tuple[Tuple[int, int, int], ...] = (
    (2, 8, 1),
    (3, 8, 2),
    (4, 8, 4),
    (5, 4, 1),
    (6, 4, 2),
    (7, 2, 1),
)
_ENC_PARAMS = {enc: (base, delta) for enc, base, delta in _DELTA_ENCODINGS}

#: the same encodings ordered by resulting payload size, so a first-fit
#: scan returns the smallest feasible encoding immediately
_ENCODINGS_BY_SIZE: Tuple[Tuple[int, int, int], ...] = tuple(
    sorted(
        _DELTA_ENCODINGS,
        key=lambda e: 1 + e[1] + (LINE_SIZE // e[1] + 7) // 8 + (LINE_SIZE // e[1]) * e[2],
    )
)


#: little-endian unpackers for one line split into unsigned elements, by width
_ELEMENTS = {
    width: struct.Struct(f"<{LINE_SIZE // width}{code}")
    for width, code in ((8, "Q"), (4, "I"), (2, "H"))
}
_SIGNED_CODES = {1: "b", 2: "h", 4: "i"}
#: signed little-endian packers for a line's deltas, by (base, delta) width
_DELTAS = {
    (base, delta): struct.Struct(f"<{LINE_SIZE // base}{_SIGNED_CODES[delta]}")
    for _, base, delta in _DELTA_ENCODINGS
}


@dataclass(frozen=True)
class _DeltaPlan:
    """A feasible base+delta encoding for one line."""

    encoding: int
    base: int
    mask: int  # bit i set => element i uses the explicit base
    deltas: List[int]  # signed deltas, one per element


class BDI(CompressionAlgorithm):
    """Base-Delta-Immediate with an implicit zero base."""

    name = "bdi"

    def compress(self, line: bytes) -> Optional[bytes]:
        self.check_line(line)
        if line == b"\x00" * LINE_SIZE:
            return bytes([_ENC_ZEROS])
        first8 = line[:8]
        if line == first8 * (LINE_SIZE // 8):
            return bytes([_ENC_REPEAT]) + first8

        # elements are parsed once per base width and encodings are tried
        # in ascending payload size, so the first feasible plan is optimal
        elements_cache = {}
        for encoding, base_bytes, delta_bytes in _ENCODINGS_BY_SIZE:
            elements = elements_cache.get(base_bytes)
            if elements is None:
                elements = _ELEMENTS[base_bytes].unpack(line)
                elements_cache[base_bytes] = elements
            plan = self._plan_elements(elements, encoding, delta_bytes)
            if plan is not None:
                payload = self._encode(plan, base_bytes, delta_bytes)
                if len(payload) < LINE_SIZE:
                    return payload
        return None

    def decompress(self, payload: bytes) -> bytes:
        if not payload:
            raise CompressionError("empty BDI payload")
        encoding = payload[0]
        if encoding == _ENC_ZEROS:
            return b"\x00" * LINE_SIZE
        if encoding == _ENC_REPEAT:
            if len(payload) != 9:
                raise CompressionError("bad BDI repeat payload")
            return payload[1:9] * (LINE_SIZE // 8)
        if encoding not in _ENC_PARAMS:
            raise CompressionError(f"unknown BDI encoding {encoding}")
        base_bytes, delta_bytes = _ENC_PARAMS[encoding]
        n = LINE_SIZE // base_bytes
        mask_bytes = (n + 7) // 8
        expected = 1 + base_bytes + mask_bytes + n * delta_bytes
        if len(payload) != expected:
            raise CompressionError("bad BDI payload length")
        pos = 1
        base = int.from_bytes(payload[pos : pos + base_bytes], "little")
        pos += base_bytes
        mask = int.from_bytes(payload[pos : pos + mask_bytes], "little")
        pos += mask_bytes
        deltas = _DELTAS[base_bytes, delta_bytes].unpack(payload[pos:])
        modulus = 1 << (base_bytes * 8)
        return _ELEMENTS[base_bytes].pack(
            *[
                ((base if (mask >> i) & 1 else 0) + delta) % modulus
                for i, delta in enumerate(deltas)
            ]
        )

    def batch_sizes(self, lines):
        """Vectorized BDI sizes over a ``(n, 64)`` uint8 array."""
        return self.batch_classify(lines)[0]

    def batch_classify(self, lines):
        """Vectorized ``(sizes, encodings)`` over a ``(n, 64)`` uint8 array.

        The encoding tag is the scalar payload's first byte (0 zeros,
        1 repeat, 2–7 the base/delta encodings) or 255 for incompressible
        lines — cheap to emit because feasibility is computed per
        encoding anyway.
        """
        import numpy as np

        from repro.compression.batch import check_batch, words_le

        array = check_batch(lines)
        n = array.shape[0]
        sizes = np.full(n, LINE_SIZE, dtype=np.int64)
        encodings = np.full(n, 255, dtype=np.int64)

        zeros = ~array.any(axis=1)
        chunks = array.reshape(n, LINE_SIZE // 8, 8)
        repeat = (chunks == chunks[:, :1, :]).all(axis=(1, 2))
        sizes[zeros] = 1
        encodings[zeros] = _ENC_ZEROS
        repeat_only = repeat & ~zeros
        sizes[repeat_only] = 9
        encodings[repeat_only] = _ENC_REPEAT

        decided = zeros | repeat
        rows = np.arange(n)
        for encoding, base_bytes, delta_bytes in _ENCODINGS_BY_SIZE:
            if decided.all():
                break
            elements = words_le(array, base_bytes)
            count = LINE_SIZE // base_bytes
            high = 1 << (delta_bytes * 8 - 1)
            immediate = elements < high
            # the first non-immediate element anchors the explicit base
            # (argmax yields 0 for all-immediate rows, where feasibility
            # holds regardless of the base value)
            base = elements[rows, np.argmax(~immediate, axis=1)][:, None]
            if base_bytes == 8:
                # 64-bit elements: uint64 wraparound plus an explicit sign
                # split reproduces the scalar arbitrary-precision check
                wrapped = elements - base
                fits = np.where(
                    elements >= base,
                    wrapped < np.uint64(high),
                    wrapped >= np.uint64((1 << 64) - high),
                )
            else:
                delta = elements.astype(np.int64) - base.astype(np.int64)
                fits = (delta >= -high) & (delta < high)
            feasible = (immediate | fits).all(axis=1) & ~decided
            payload = 1 + base_bytes + (count + 7) // 8 + count * delta_bytes
            sizes[feasible] = payload
            encodings[feasible] = encoding
            decided |= feasible
        return sizes, encodings

    @staticmethod
    def _plan_elements(
        elements: Sequence[int], encoding: int, delta_bytes: int
    ) -> Optional[_DeltaPlan]:
        """Plan over pre-parsed unsigned elements (hot path)."""
        bits = delta_bytes * 8
        low = -(1 << (bits - 1))
        high = 1 << (bits - 1)
        base: Optional[int] = None
        mask = 0
        deltas: List[int] = []
        for i, element in enumerate(elements):
            if element < high:  # unsigned small => fits implicit zero base
                deltas.append(element)
                continue
            if base is None:
                base = element  # first non-immediate element anchors the base
            delta = element - base
            if not low <= delta < high:
                return None
            mask |= 1 << i
            deltas.append(delta)
        if base is None:
            base = 0
        return _DeltaPlan(encoding, base, mask, deltas)

    @staticmethod
    def _encode(plan: _DeltaPlan, base_bytes: int, delta_bytes: int) -> bytes:
        mask_bytes = (LINE_SIZE // base_bytes + 7) // 8
        return b"".join(
            (
                bytes([plan.encoding]),
                plan.base.to_bytes(base_bytes, "little"),
                plan.mask.to_bytes(mask_bytes, "little"),
                _DELTAS[base_bytes, delta_bytes].pack(*plan.deltas),
            )
        )

"""Vectorized batch compression: sizes for whole line populations at once.

The simulator's hot path only rarely needs a compressed *payload* — most
queries ("would this group fit one slot?", "how many bursts does this
line need?") consume the compressed **size**.  Sizes are where the paper's
evaluation spends its time too: CRAM and Pekhimenko's thesis both sweep
compression over whole-trace line populations.  This module computes
per-line sizes for a ``(n_lines, 64)`` uint8 numpy array in one shot.

Contract
--------

Every vectorized kernel (each algorithm's ``batch_sizes`` override) must
return **exactly** the sizes the scalar ``compressed_size`` reference
produces, line for line.  The scalar path is the specification; the
property/golden tests in ``tests/test_batch_compression.py`` enforce the
equivalence over random, patterned and adversarial corpora, and the
seven-design sim golden test proves a batch-driven run is bitwise
identical to a scalar one.

:class:`BatchCompressor` wraps one scalar algorithm and adds the glue the
simulator needs: bytes⇄array conversion, per-line size vectors, and
(for memoizing algorithms) seeding the size memo so subsequent
scalar ``compressed_size``/``cached_size`` queries become dict hits.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.compression.base import LINE_SIZE, CompressionAlgorithm


def lines_to_array(lines: Sequence[bytes]) -> np.ndarray:
    """Stack 64-byte lines into one ``(n, 64)`` uint8 array."""
    for line in lines:
        if len(line) != LINE_SIZE:
            raise ValueError(f"expected {LINE_SIZE}-byte lines, got {len(line)}")
    if not lines:
        return np.empty((0, LINE_SIZE), dtype=np.uint8)
    return np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(-1, LINE_SIZE)


def array_to_lines(array: np.ndarray) -> List[bytes]:
    """Invert :func:`lines_to_array` (one ``bytes`` per row)."""
    array = check_batch(array)
    return [row.tobytes() for row in array]


def check_batch(lines) -> np.ndarray:
    """Validate/coerce a batch into a C-contiguous ``(n, 64)`` uint8 array."""
    array = np.ascontiguousarray(lines, dtype=np.uint8)
    if array.ndim != 2 or array.shape[1] != LINE_SIZE:
        raise ValueError(
            f"batch must have shape (n_lines, {LINE_SIZE}), got {array.shape}"
        )
    return array


def words_le(array: np.ndarray, width: int) -> np.ndarray:
    """Little-endian ``width``-byte elements of each line, as unsigned ints."""
    dtype = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}[width]
    return check_batch(array).view(dtype)


def words_be(array: np.ndarray, width: int) -> np.ndarray:
    """Big-endian ``width``-byte elements of each line, as unsigned ints."""
    dtype = {2: ">u2", 4: ">u4", 8: ">u8"}[width]
    return check_batch(array).view(dtype)


def finalize_sizes(total_bits: np.ndarray) -> np.ndarray:
    """Bit counts -> charged byte sizes (``LINE_SIZE`` when not smaller).

    Mirrors the scalar encoders: the bit stream is padded to whole bytes
    and a payload that does not beat the raw line returns ``None`` (size
    ``LINE_SIZE``).
    """
    nbytes = (total_bits.astype(np.int64) + 7) // 8
    return np.where(nbytes >= LINE_SIZE, LINE_SIZE, nbytes)


class BatchCompressor:
    """Batch front-end over one scalar :class:`CompressionAlgorithm`.

    ``sizes`` accepts either a ``(n, 64)`` uint8 array or a sequence of
    64-byte ``bytes`` and returns the per-line compressed sizes via the
    algorithm's vectorized kernel (scalar-loop fallback for algorithms
    without one).  ``precompute`` additionally pushes the results into
    the algorithm's size memo (when it has one), which is how the
    batch-driven simulator replaces per-access recompression with a
    single vectorized pass per trace chunk.
    """

    def __init__(self, algorithm: CompressionAlgorithm) -> None:
        self.algorithm = algorithm

    def sizes(self, lines) -> np.ndarray:
        """Per-line compressed sizes (``LINE_SIZE`` = incompressible)."""
        if isinstance(lines, np.ndarray):
            return self.algorithm.batch_sizes(lines)
        return self.algorithm.batch_sizes(lines_to_array(list(lines)))

    def precompute(self, lines: Iterable[bytes]) -> Optional[np.ndarray]:
        """Batch-compute sizes for ``lines`` and seed the size memo.

        Returns the size vector (``None`` for an empty batch).  Harmless
        for non-memoizing algorithms: the sizes are simply computed and
        dropped, so callers can wire the hook unconditionally.
        """
        distinct = list(dict.fromkeys(lines))
        seeder = getattr(self.algorithm, "seed_sizes", None)
        if seeder is not None:
            distinct = [line for line in distinct if self.algorithm.cached_size(line) is None]
        if not distinct:
            return None
        sizes = self.sizes(lines_to_array(distinct))
        if seeder is not None:
            seeder(distinct, sizes)
        return sizes


__all__ = [
    "BatchCompressor",
    "array_to_lines",
    "check_batch",
    "finalize_sizes",
    "lines_to_array",
    "words_be",
    "words_le",
]

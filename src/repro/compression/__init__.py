"""Cache-line compression algorithms (FPC, BDI, C-Pack, zero-line, hybrid).

All algorithms operate on 64-byte lines and produce self-describing
payloads; see :mod:`repro.compression.base` for the interface.
"""

from repro.compression.base import LINE_SIZE, CompressionAlgorithm, CompressionError
from repro.compression.batch import (
    BatchCompressor,
    array_to_lines,
    lines_to_array,
)
from repro.compression.bdi import BDI
from repro.compression.cpack import CPack
from repro.compression.fpc import FPC
from repro.compression.fvc import DEFAULT_FREQUENT_VALUES, FVC, train_dictionary
from repro.compression.hybrid import HybridCompressor
from repro.compression.zeroline import ZeroLine

#: The per-line algorithms a simulated design can compress with, by
#: ``name`` (the names ``SimConfig.compression`` lists).
ALGORITHMS = {algorithm.name: algorithm for algorithm in (FPC, BDI, CPack, FVC, ZeroLine)}

__all__ = [
    "ALGORITHMS",
    "LINE_SIZE",
    "CompressionAlgorithm",
    "CompressionError",
    "BatchCompressor",
    "BDI",
    "CPack",
    "FPC",
    "FVC",
    "DEFAULT_FREQUENT_VALUES",
    "train_dictionary",
    "HybridCompressor",
    "ZeroLine",
    "array_to_lines",
    "lines_to_array",
]

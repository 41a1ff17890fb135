"""The paper's contribution: PTMC and the designs it is evaluated against.

Public surface:

- :class:`PTMCController` / :class:`PTMCConfig` — the proposed design
  (inline markers + LLP + LIT); pair with :class:`SamplingPolicy` for
  Dynamic-PTMC or :class:`AlwaysOnPolicy` for Static-PTMC.
- :class:`MetadataTableController` — prior table-based TMC baseline.
- :class:`IdealTMCController` — zero-overhead oracle upper bound.
- :class:`UncompressedController` — the normalisation baseline.
- :class:`NextLinePrefetchController` — Table VI's prefetch comparison.
"""

from repro.core import address_map
from repro.core.base_controller import (
    DECOMPRESSION_LATENCY,
    LLCView,
    MemoryController,
    NullLLCView,
)
from repro.core.ideal import IdealTMCController
from repro.core.lit import LineInversionTable, LITOverflow, LITPolicy
from repro.core.llp import LineLocationPredictor
from repro.core.markers import MarkerScheme, SlotClass, SlotKind, invert
from repro.core.memzip import MemZipController
from repro.core.metadata_table import MetadataTableConfig, MetadataTableController
from repro.core.packing import (
    compress_group,
    decompress_group,
    pack_slot,
    payload_budget,
    unpack_slot,
)
from repro.core.policy import (
    AlwaysOffPolicy,
    AlwaysOnPolicy,
    CompressionPolicy,
    SamplingPolicy,
)
from repro.core.prefetch import NextLinePrefetchController
from repro.core.ptmc import PTMCConfig, PTMCController
from repro.core.uncompressed import UncompressedController
from repro.types import Category, Level, ReadResult

__all__ = [
    "address_map",
    "DECOMPRESSION_LATENCY",
    "LLCView",
    "MemoryController",
    "NullLLCView",
    "IdealTMCController",
    "LineInversionTable",
    "LITOverflow",
    "LITPolicy",
    "LineLocationPredictor",
    "MarkerScheme",
    "SlotClass",
    "SlotKind",
    "invert",
    "MemZipController",
    "MetadataTableConfig",
    "MetadataTableController",
    "compress_group",
    "decompress_group",
    "pack_slot",
    "payload_budget",
    "unpack_slot",
    "AlwaysOffPolicy",
    "AlwaysOnPolicy",
    "CompressionPolicy",
    "SamplingPolicy",
    "NextLinePrefetchController",
    "PTMCConfig",
    "PTMCController",
    "Category",
    "Level",
    "ReadResult",
    "UncompressedController",
]

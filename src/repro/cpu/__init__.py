"""CPU substrate: the trace record and the bounded-MLP core timing model."""

from repro.cpu.core import CoreModel
from repro.cpu.trace import TraceRecord, trace_from_lists

__all__ = [
    "CoreModel",
    "TraceRecord",
    "trace_from_lists",
]

"""Outside-in layer attribution for one built ``SimulatedSystem``.

:func:`instrument` replaces public bound methods of the objects a
``SimulatedSystem`` wires together with timing wrappers set as instance
attributes; the classes, and ``src/``, stay untouched.  Each wrapped call
is one span: name, start, end and the span that was open when it began.
A span's self time is its duration minus the time its child spans cover,
so the self times of all spans under the root (``sim.loop``) add up to the
root's duration.

Span names are the per-layer metric prefixes of ``BENCHMARK.json``:

===================== =====================================================
``sim.loop``           ``SimulatedSystem.run`` (root: the event loop itself)
``cpu.step``           ``CoreModel.step`` on every core
``workloads.next``     each core's trace iterator (trace generation)
``workloads.render``   each generator's ``data.line`` (line rendering)
``vm.translate``       ``PageTable.translate``
``cache.access``       ``CacheHierarchy.access``
``core.read_line``     controller ``read_line``
``core.handle_eviction`` controller ``handle_eviction``
``core.markers``       ``MarkerScheme`` classify/marker/invalid_marker/collides
``compression``        every method of the controller's compressor and of
                       the algorithms it combines, except when called under
                       ``compression.batch``
``compression.batch``  ``BatchCompressor.precompute`` with everything it
                       calls (memo filter, vectorized kernels, memo seeding)
``dram.access``        ``DRAMSystem.access``
``dram.storage``       ``PhysicalMemory.read``/``write``
===================== =====================================================
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYER_NAMES = (
    "sim.loop",
    "cpu.step",
    "workloads.next",
    "workloads.render",
    "vm.translate",
    "cache.access",
    "core.read_line",
    "core.handle_eviction",
    "core.markers",
    "compression",
    "compression.batch",
    "dram.access",
    "dram.storage",
)

_COMPRESSOR_METHODS = (
    "compress",
    "decompress",
    "compress_and_size",
    "compressed_size",
    "cached_size",
    "seed_sizes",
    "batch_sizes",
)
_MARKER_METHODS = ("classify", "marker", "invalid_marker", "collides")

#: One recorded span: (name, start, end, span id, parent span id or 0).
SpanRecord = Tuple[str, float, float, int, int]


class LayerTracer:
    """Span recorder with per-name call counts and self time.

    Spans are kept in memory up to ``max_spans``, plus every top-level
    span (the rest are counted in ``dropped``); counts and self times
    always cover every call.
    """

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self.dropped = 0
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: open spans, innermost last: [child seconds, span id, name]
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self.memo_queries = 0
        self.memo_hits = 0

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self._stack) and self._stack[-1][2] == name

    def wrap(self, fn: Callable[..., Any], name: str,
             unless_inside: Optional[str] = None) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``.

        Called while the innermost open span is ``unless_inside``, ``fn``
        opens no span: its time stays in that span's self time.
        """
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if unless_inside is not None and stack and stack[-1][2] == unless_inside:
                return fn(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if len(spans) < self.max_spans or not parent:
                    spans.append((name, start, end, span_id, parent))
                else:
                    self.dropped += 1

        return timed

    def patch(self, obj: Any, attr: str, name: str, unless_inside: Optional[str] = None) -> None:
        """Shadow ``obj.attr`` with a timed wrapper (instance attribute)."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name, unless_inside))

    def count_memo(self, fn: Callable[[bytes], Optional[int]]) -> Callable[[bytes], Optional[int]]:
        """Count the controller's ``cached_size`` queries and their non-``None``
        answers; the batch path's own memo filter is not counted."""

        def counted(line):
            answer = fn(line)
            if self.inside("compression.batch"):
                return answer
            self.memo_queries += 1
            if answer is not None:
                self.memo_hits += 1
            return answer

        return counted

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls": n, "self_s": seconds}}`` for every layer."""
        return {
            name: {"calls": self.calls.get(name, 0), "self_s": self.self_s.get(name, 0.0)}
            for name in LAYER_NAMES
        }


def chrome_trace(tracers: List[LayerTracer], process_name: str) -> Dict[str, Any]:
    """Recorded spans as Chrome trace-event JSON, one thread per tracer."""
    origin = min((s[1] for t in tracers for s in t.spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
         "args": {"name": process_name}},
    ]
    for tid, tracer in enumerate(tracers):
        for name, start, end, span_id, parent in tracer.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": sum(t.dropped for t in tracers)},
    }


class _TimedIterator:
    """An iterator whose every ``next`` is one span."""

    def __init__(self, iterator: Iterator[Any], tracer: LayerTracer, name: str) -> None:
        self._next = tracer.wrap(iterator.__next__, name)

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._next()


def instrument(system: Any, tracer: LayerTracer) -> None:
    """Wrap every layer boundary of a built, not yet run, ``SimulatedSystem``."""
    tracer.patch(system, "run", "sim.loop")
    for core in system.cores:
        tracer.patch(core, "step", "cpu.step")
        core.trace = _TimedIterator(core.trace, tracer, "workloads.next")
    for generator in system.generators:
        tracer.patch(generator.data, "line", "workloads.render")
    tracer.patch(system.page_table, "translate", "vm.translate")
    tracer.patch(system.hierarchy, "access", "cache.access")
    controller = system.controller
    tracer.patch(controller, "read_line", "core.read_line")
    tracer.patch(controller, "handle_eviction", "core.handle_eviction")
    markers = getattr(controller, "markers", None)
    if markers is not None:
        for method in _MARKER_METHODS:
            tracer.patch(markers, method, "core.markers")
    compressor = getattr(controller, "compressor", None)
    if compressor is not None:
        compressor.cached_size = tracer.count_memo(compressor.cached_size)
        for algorithm in (compressor, *getattr(compressor, "algorithms", ())):
            for method in _COMPRESSOR_METHODS:
                if hasattr(algorithm, method):
                    tracer.patch(algorithm, method, "compression", "compression.batch")
    if system.batch is not None:
        tracer.patch(system.batch, "precompute", "compression.batch")
    tracer.patch(system.dram, "access", "dram.access")
    tracer.patch(system.memory, "read", "dram.storage")
    tracer.patch(system.memory, "write", "dram.storage")

"""Lightweight span tracer exporting Chrome trace-event JSON.

One :class:`Tracer` collects timing events for a process — simulation
phases, batch-kernel precomputes, disk-cache reads/writes, sweep
batches, service job lifecycles, HTTP requests — and serializes them
in the Chrome trace-event format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Instrumentation sites never hold a tracer reference.  They call the
module-level :func:`span` / :func:`instant` / :func:`counter` helpers,
which no-op (one global read, no allocation beyond a shared
``nullcontext``) unless a tracer has been installed with
:func:`set_tracer`.  That keeps the hot paths clean: an uninstrumented
run pays a predicate per call site, nothing more — and no site sits
inside the per-line-access simulation loop.

Every tracer carries a process-unique ``trace_id`` and hands each span
a monotonically increasing ``span_id``; the service's structured logs
embed both, so a Perfetto view and a log grep correlate on ids.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

#: Event phases this tracer emits (a subset of the Chrome format).
_PHASES = frozenset({"X", "i", "C", "b", "e", "M"})

#: Default bound on buffered events; beyond it new events are dropped
#: (and counted) so a long-lived daemon cannot grow without bound.
DEFAULT_MAX_EVENTS = 100_000


class Span:
    """Handle yielded by :meth:`Tracer.span`: ids for log correlation."""

    __slots__ = ("span_id", "trace_id")

    def __init__(self, span_id: int, trace_id: str) -> None:
        self.span_id = span_id
        self.trace_id = trace_id


class Tracer:
    """An in-memory Chrome trace-event collector (thread-safe)."""

    def __init__(
        self,
        process_name: str = "repro",
        trace_id: Optional[str] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.process_name = process_name
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.max_events = max_events
        self.dropped = 0
        self._origin_ns = time.perf_counter_ns()
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._next_span_id = 1
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._origin_ns) / 1000.0

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    def _new_span_id(self) -> int:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, category: str = "repro", **args: Any):
        """A complete ("X") event covering the ``with`` block."""
        span_id = self._new_span_id()
        start = self._now_us()
        try:
            yield Span(span_id, self.trace_id)
        finally:
            self._emit(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "ts": start,
                    "dur": self._now_us() - start,
                    "pid": self._pid,
                    "tid": threading.get_ident(),
                    "args": {**args, "span_id": span_id, "trace_id": self.trace_id},
                }
            )

    def instant(self, name: str, category: str = "repro", **args: Any) -> None:
        """A zero-duration marker ("i") at the current time."""
        self._emit(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "t",
                "ts": self._now_us(),
                "pid": self._pid,
                "tid": threading.get_ident(),
                "args": dict(args),
            }
        )

    def counter(self, name: str, values: Dict[str, float], category: str = "repro") -> None:
        """A counter track sample ("C"); ``values`` plot as stacked series."""
        self._emit(
            {
                "name": name,
                "cat": category,
                "ph": "C",
                "ts": self._now_us(),
                "pid": self._pid,
                "tid": threading.get_ident(),
                "args": {k: float(v) for k, v in values.items()},
            }
        )

    def async_begin(self, name: str, async_id: str, category: str = "repro", **args: Any) -> None:
        """Open an async span ("b") — lifecycles that cross threads/calls."""
        self._emit(
            {
                "name": name,
                "cat": category,
                "ph": "b",
                "id": async_id,
                "ts": self._now_us(),
                "pid": self._pid,
                "tid": threading.get_ident(),
                "args": {**args, "trace_id": self.trace_id},
            }
        )

    def async_end(self, name: str, async_id: str, category: str = "repro", **args: Any) -> None:
        """Close an async span ("e") opened with :meth:`async_begin`."""
        self._emit(
            {
                "name": name,
                "cat": category,
                "ph": "e",
                "id": async_id,
                "ts": self._now_us(),
                "pid": self._pid,
                "tid": threading.get_ident(),
                "args": dict(args),
            }
        )

    # -- export ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def to_chrome(self) -> Dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object."""
        with self._lock:
            events = list(self._events)
            dropped = self.dropped
        tids = sorted({e["tid"] for e in events})
        metadata: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self._pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": self.process_name},
            }
        ]
        for index, tid in enumerate(tids):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self._pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": f"thread-{index}"},
                }
            )
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": self.trace_id,
                "process_name": self.process_name,
                "dropped_events": dropped,
            },
        }

    def write(self, path) -> int:
        """Serialize to ``path``; returns the number of events written."""
        payload = self.to_chrome()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        return len(payload["traceEvents"])


# -- the process-wide current tracer ------------------------------------

_current: Optional[Tracer] = None
_NULL_SPAN = Span(0, "")


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None`` remove) the process-wide tracer."""
    global _current
    _current = tracer
    return tracer


def current_tracer() -> Optional[Tracer]:
    return _current


def span(name: str, category: str = "repro", **args: Any):
    """Span on the current tracer, or a shared no-op context manager."""
    tracer = _current
    if tracer is None:
        return contextlib.nullcontext(_NULL_SPAN)
    return tracer.span(name, category, **args)


def instant(name: str, category: str = "repro", **args: Any) -> None:
    tracer = _current
    if tracer is not None:
        tracer.instant(name, category, **args)


def counter(name: str, values: Dict[str, float], category: str = "repro") -> None:
    tracer = _current
    if tracer is not None:
        tracer.counter(name, values, category)


def async_begin(name: str, async_id: str, category: str = "repro", **args: Any) -> None:
    tracer = _current
    if tracer is not None:
        tracer.async_begin(name, async_id, category, **args)


def async_end(name: str, async_id: str, category: str = "repro", **args: Any) -> None:
    tracer = _current
    if tracer is not None:
        tracer.async_end(name, async_id, category, **args)


# -- validation ----------------------------------------------------------


def validate_chrome_trace(payload: Any) -> int:
    """Validate a Chrome trace-event JSON object; returns the event count.

    Checks the envelope and every event's required fields — the schema
    Perfetto's legacy JSON importer expects.  Raises ``ValueError`` with
    the first offending event on any violation.  Used by the trace tests
    and the CI ``obs-smoke`` job.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: ts must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: X event needs non-negative dur")
        if phase in ("b", "e") and not isinstance(event.get("id"), str):
            raise ValueError(f"{where}: async event needs a string id")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ValueError(f"{where}: C event args must be numeric")
        if phase == "M" and "name" not in event.get("args", {}):
            raise ValueError(f"{where}: metadata event needs args.name")
    return len(events)


__all__ = [
    "DEFAULT_MAX_EVENTS",
    "Span",
    "Tracer",
    "async_begin",
    "async_end",
    "counter",
    "current_tracer",
    "instant",
    "set_tracer",
    "span",
    "validate_chrome_trace",
]

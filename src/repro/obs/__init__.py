"""Observability: time-series sampling, span tracing, standard exposition.

Three coordinated layers over the telemetry registry (DESIGN.md §11):

- **Sampling** (:mod:`repro.obs.sampler`) — an :class:`IntervalSampler`
  snapshots a run's :class:`~repro.telemetry.StatRegistry` every N
  line-accesses into a phase-resolved :class:`TimeSeries` carried on
  :class:`~repro.sim.results.SimResult` (``repro timeline`` renders it).
- **Tracing** (:mod:`repro.obs.tracing`) — ``span()`` context managers
  record Chrome trace-event JSON (Perfetto-loadable) across trace
  decode, batch kernels, disk-cache I/O, sweep batches, service job
  lifecycles, and HTTP requests; trace/span ids correlate into logs.
- **Exposition** (:mod:`repro.obs.prometheus`, :mod:`repro.obs.logging`)
  — Prometheus text format for ``GET /metrics?format=prometheus`` and
  structured JSON logs for the daemon.

Everything here is strictly read-only over the simulation: the
seven-design golden test proves an instrumented run is bitwise-identical
to an uninstrumented one.
"""

from repro.obs.logging import StructuredLog
from repro.obs.prometheus import prometheus_exposition
from repro.obs.sampler import IntervalSampler
from repro.obs.timeseries import TimeSeries, TimeSeriesDecodeError, TimeSeriesPoint
from repro.obs.tracing import (
    Tracer,
    counter,
    current_tracer,
    instant,
    set_tracer,
    span,
    validate_chrome_trace,
)

__all__ = [
    "IntervalSampler",
    "StructuredLog",
    "TimeSeries",
    "TimeSeriesDecodeError",
    "TimeSeriesPoint",
    "Tracer",
    "counter",
    "current_tracer",
    "instant",
    "prometheus_exposition",
    "set_tracer",
    "span",
    "validate_chrome_trace",
]

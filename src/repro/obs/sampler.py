"""Interval sampling of the simulation's stat registry.

The :class:`IntervalSampler` turns the registry's one-shot
snapshot/delta protocol into a phase-resolved time series: the
simulator calls :meth:`IntervalSampler.on_access` once per line-access
and every ``interval`` accesses the sampler windows every registered
stat against the previous sample, appending a
:class:`~repro.obs.timeseries.TimeSeriesPoint`.

Two rules keep the series faithful to the run's phase structure:

- :meth:`mark_phase` (called by the simulator at the warmup boundary)
  flushes the partial interval as a final point of the *old* phase, so
  no point ever mixes warmup and measured traffic, and
- :meth:`finish` flushes whatever partial interval remains at the end
  of the run, so short runs (interval longer than the run) still yield
  one point per phase they executed.

Sampling is strictly read-only over sourced counters, so an
instrumented run is bitwise-identical to an uninstrumented one (the
``tests/test_obs_golden.py`` seven-design golden test enforces this).
"""

from __future__ import annotations

from repro.obs import tracing
from repro.obs.timeseries import TimeSeries, TimeSeriesPoint
from repro.telemetry import StatRegistry

#: headline counter deltas each sample mirrors onto the active tracer as
#: Chrome counter-track events, correlating the time series with spans
TRACE_COUNTERS = ("dram.reads", "dram.writes", "llc.hits", "llc.misses")


class IntervalSampler:
    """Snapshots a :class:`StatRegistry` every N line-accesses."""

    def __init__(
        self,
        registry: StatRegistry,
        interval: int,
        phase: str = "warmup",
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive (0 disables)")
        self.registry = registry
        self.interval = interval
        self.phase = phase
        self.accesses = 0
        self._since_sample = 0
        self._base = registry.snapshot()
        self._points: list = []

    # -- the simulator-facing protocol -----------------------------------

    def on_access(self) -> None:
        """Count one line-access; sample when the interval fills."""
        self.accesses += 1
        self._since_sample += 1
        if self._since_sample >= self.interval:
            self._sample()

    def mark_phase(self, phase: str) -> None:
        """Flush the partial interval and switch to a new phase.

        Called exactly at the warmup boundary, after the simulator's own
        baseline snapshot: the flushed point closes the old phase so no
        interval straddles the boundary, and the fresh base aligns the
        first measured point with the simulator's measurement window.
        """
        if self._since_sample > 0:
            self._sample()
        else:
            # nothing accumulated, but re-base so the first point of the
            # new phase cannot reach back across the boundary
            self._base = self.registry.snapshot()
        self.phase = phase

    def finish(self) -> None:
        """Flush whatever partial interval the end of the run leaves."""
        if self._since_sample > 0:
            self._sample()

    # -- internals -------------------------------------------------------

    def _sample(self) -> None:
        metrics = self.registry.delta(self._base)
        self._points.append(
            TimeSeriesPoint(accesses=self.accesses, phase=self.phase, metrics=metrics)
        )
        self._base = self.registry.snapshot()
        self._since_sample = 0
        values = {path: float(metrics[path]) for path in TRACE_COUNTERS if path in metrics}
        if values:
            tracing.counter("sim.sample", values, category="sim")

    def timeseries(self) -> TimeSeries:
        """The series collected so far (points are shared, not copied)."""
        return TimeSeries(interval=self.interval, points=self._points)


__all__ = ["IntervalSampler"]

"""Primitive stat types: counters, gauges, and derived ratios.

Every simulation metric is one of three shapes:

- :class:`Counter` — a monotonically non-decreasing count (DRAM row hits,
  LLC misses, inversions).  Over a measurement window it reports the
  *delta* between the window's end and its start, which is how the
  simulator excludes warmup traffic from results.
- :class:`Gauge` — a point-in-time observation (LIT occupancy, the
  fraction of cores with compression enabled).  Windows do not apply;
  a gauge always reports its current value.
- :class:`RatioStat` — a quotient of counter deltas (hit rates, LLP
  accuracy), recomputed over the measurement window so warmup traffic
  cannot skew it.

Counters and gauges hold no value: each reads a component attribute
through a zero-argument callable, its *source*.  That keeps hot paths
free of telemetry overhead — components keep doing ``self.hits += 1``
and the registry only reads the attribute at snapshot/collect time.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

#: A metric value as reported over a measurement window.
MetricValue = Union[int, float]

#: Zero-argument reader backing a sourced stat.
Source = Callable[[], MetricValue]


class Stat:
    """Base class: something the registry can snapshot and window."""

    kind = "stat"

    def __init__(self, doc: str = "") -> None:
        self.doc = doc

    def read(self):
        """Raw current value (opaque; only meaningful to ``measured``)."""
        raise NotImplementedError

    def measured(self, base) -> MetricValue:
        """Value over the window starting at snapshot ``base`` (or None)."""
        raise NotImplementedError


class Counter(Stat):
    """A monotonically non-decreasing count with windowed-delta semantics.

    ``windowed=False`` opts out of delta semantics: the counter reports
    its whole-run value even across a snapshot boundary.  Components use
    it for counts whose historical meaning integrates over the entire
    run (e.g. the sampling policy's utility events, whose end state
    reflects warmup traffic too).
    """

    kind = "counter"

    def __init__(self, source: Source, windowed: bool = True, doc: str = "") -> None:
        super().__init__(doc)
        self._source = source
        self.windowed = windowed

    def read(self) -> MetricValue:
        return self._source()

    def measured(self, base) -> MetricValue:
        value = self.read()
        if not self.windowed or base is None:
            return value
        return value - base


class Gauge(Stat):
    """A point-in-time observation; windows do not apply."""

    kind = "gauge"

    def __init__(self, source: Source, doc: str = "") -> None:
        super().__init__(doc)
        self._source = source

    def read(self) -> MetricValue:
        return self._source()

    def measured(self, base) -> MetricValue:
        return self.read()


class Histogram(Stat):
    """Bucketed observations (latencies, depths) with cumulative counts.

    Prometheus-shaped: ``buckets`` are upper bounds (``le``), counts are
    cumulative per bucket with an implicit ``+Inf`` bucket, and the
    running ``sum``/``count`` ride along — exactly what the text
    exposition needs, with no windowing (Prometheus histograms are
    cumulative by design).  In the registry's JSON ``delta`` mapping a
    histogram reports its windowed observation *count*; the full
    distribution is only meaningful through
    :func:`repro.obs.prometheus.prometheus_exposition`.
    """

    kind = "histogram"

    #: Prometheus' default latency buckets (seconds).
    DEFAULT_BUCKETS = (
        0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(
        self, buckets: Optional[Sequence[float]] = None, doc: str = ""
    ) -> None:
        super().__init__(doc)
        bounds = tuple(sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: MetricValue) -> None:
        """Record one observation into every bucket it fits."""
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> Tuple[Tuple[float, int], ...]:
        """``(le, cumulative count)`` pairs, excluding the ``+Inf`` bucket."""
        return tuple(zip(self.bounds, self._bucket_counts))

    def read(self):
        return (self._count, self._sum, tuple(self._bucket_counts))

    def measured(self, base) -> MetricValue:
        if base is None:
            return self._count
        return self._count - base[0]


class RatioStat(Stat):
    """``numerator / sum(denominators)`` over the measurement window.

    The component counters' own window semantics apply, so a ratio over
    unwindowed counters reports a whole-run quotient.  ``one_minus``
    reports the complement (the LLP's accuracy is one minus its
    misprediction rate); ``default`` is the value reported when the
    window's denominator is zero.
    """

    kind = "ratio"

    def __init__(
        self,
        numerator: Counter,
        denominators: Sequence[Counter],
        default: float = 0.0,
        one_minus: bool = False,
        doc: str = "",
    ) -> None:
        super().__init__(doc)
        if not denominators:
            raise ValueError("a ratio needs at least one denominator counter")
        self._numerator = numerator
        self._denominators = tuple(denominators)
        self._default = default
        self._one_minus = one_minus

    def read(self) -> Tuple[MetricValue, Tuple[MetricValue, ...]]:
        return (
            self._numerator.read(),
            tuple(d.read() for d in self._denominators),
        )

    def measured(self, base) -> float:
        if base is None:
            num_base, den_bases = None, (None,) * len(self._denominators)
        else:
            num_base, den_bases = base
        numerator = self._numerator.measured(num_base)
        denominator = sum(
            d.measured(b) for d, b in zip(self._denominators, den_bases)
        )
        if denominator <= 0:
            return self._default
        value = numerator / denominator
        return 1.0 - value if self._one_minus else value


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricValue",
    "RatioStat",
    "Source",
    "Stat",
]

"""Hierarchical stat registry with snapshot/delta measurement windows.

One :class:`StatRegistry` serves a whole simulated system.  Components
never see the registry itself — they are handed a :class:`StatScope`
(a namespace like ``dram`` or ``ptmc.llp``) and register their stats
under it, so adding a counter is a one-line change in the component
that owns it::

    def register_stats(self, scope: StatScope) -> None:
        scope.counter("row_hits", lambda: self.stats.row_hits)

The simulator takes one :meth:`StatRegistry.snapshot` at the warmup
boundary and one :meth:`StatRegistry.delta` at the end of the run; the
delta maps every registered path to its measured-phase value (counters
as window deltas, gauges as final observations, ratios recomputed over
the window).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.stats import (
    Counter,
    Gauge,
    Histogram,
    MetricValue,
    RatioStat,
    Source,
    Stat,
)

#: One path segment: lowercase alphanumerics and underscores (``core.0``
#: style numeric segments included).
_SEGMENT = re.compile(r"^[a-z0-9_]+$")

#: A registry snapshot: raw stat readings keyed by path.  Opaque — only
#: :meth:`StatRegistry.delta` knows how to interpret the values.
Snapshot = Dict[str, Any]

#: A measured metrics mapping: path -> windowed value.
Metrics = Dict[str, MetricValue]


def _validate_path(path: str) -> str:
    segments = path.split(".")
    if not segments or not all(_SEGMENT.match(s) for s in segments):
        raise ValueError(
            f"invalid stat path {path!r}: dotted lowercase segments required"
        )
    return path


class StatScope:
    """A namespace view of a registry, handed to one component."""

    def __init__(self, registry: "StatRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = _validate_path(prefix)

    @property
    def prefix(self) -> str:
        return self._prefix

    def path(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def scope(self, name: str) -> "StatScope":
        """A nested namespace (``scope('llp')`` under ``ptmc`` -> ``ptmc.llp``)."""
        return StatScope(self._registry, self.path(name))

    def counter(
        self, name: str, source: Source, windowed: bool = True, doc: str = ""
    ) -> Counter:
        return self._registry.register(
            self.path(name), Counter(source, windowed=windowed, doc=doc)
        )

    def gauge(self, name: str, source: Source, doc: str = "") -> Gauge:
        return self._registry.register(self.path(name), Gauge(source, doc=doc))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        doc: str = "",
    ) -> Histogram:
        return self._registry.register(self.path(name), Histogram(buckets, doc=doc))

    def ratio(
        self,
        name: str,
        numerator: Counter,
        denominators: Sequence[Counter],
        default: float = 0.0,
        one_minus: bool = False,
        doc: str = "",
    ) -> RatioStat:
        return self._registry.register(
            self.path(name),
            RatioStat(numerator, denominators, default=default, one_minus=one_minus, doc=doc),
        )


class StatRegistry:
    """The system-wide stat tree: registration, snapshot, and delta."""

    def __init__(self) -> None:
        self._stats: Dict[str, Stat] = {}

    def scope(self, name: str) -> StatScope:
        """A top-level namespace for one component."""
        return StatScope(self, name)

    def register(self, path: str, stat: Stat):
        _validate_path(path)
        if path in self._stats:
            raise ValueError(f"stat {path!r} already registered")
        self._stats[path] = stat
        return stat

    def get(self, path: str) -> Stat:
        return self._stats[path]

    def paths(self) -> List[str]:
        """Every registered path, in registration order."""
        return list(self._stats)

    def __contains__(self, path: str) -> bool:
        return path in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def snapshot(self) -> Snapshot:
        """Raw readings of every stat, marking a window's start."""
        return {path: stat.read() for path, stat in self._stats.items()}

    def delta(self, base: Optional[Snapshot] = None) -> Metrics:
        """Measured values for the window starting at ``base``.

        ``base=None`` (or a path missing from ``base`` because the stat
        was registered later) measures from zero — the whole run.
        """
        base = base or {}
        return {
            path: stat.measured(base.get(path))
            for path, stat in self._stats.items()
        }


__all__ = ["Metrics", "Snapshot", "StatRegistry", "StatScope"]

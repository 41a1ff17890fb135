"""Simulation results and the metrics derived from them.

A :class:`SimResult` is the measured window's telemetry, keyed by
registry path (``dram.row_hits``, ``ptmc.llp.accuracy``, ...), plus
host-side provenance.  The paper's quantities (per-core cycles, DRAM
traffic by category, L3 hits, LLP accuracy) are read-only accessors over
fixed paths of that mapping; this module is the one place that knows
which.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.types import Category
from repro.dram.system import DRAMStats
from repro.obs.timeseries import TimeSeries
from repro.telemetry import MetricValue

#: Layout version of a result payload, written into every payload and
#: checked by every decode (the disk cache, ``ServiceClient.result`` and
#: the daemon's upload route); a payload of another version is rejected.
#: Bump it only when the layout changes: the disk-cache key hashes the
#: code itself (:func:`repro.sim.diskcache.code_digest`), so a behaviour
#: change needs no bump.
#: 4: a result is its metrics; no field or ``extras`` entry copies one.
CACHE_SCHEMA_VERSION = 4

#: ``DRAMStats`` counters, each read from ``dram.<name>``
_DRAM_COUNTERS = (
    "row_hits", "row_misses", "activations", "reads", "writes", "busy_cycles", "refresh_stalls",
)
_ACCESSES = "dram.accesses."
_ACCESS_PATHS = frozenset(_ACCESSES + category.value for category in Category)

#: The accessors that project ``metrics`` onto the paper's quantities.
#: Decoding evaluates each, so a stored result lacking a path one of them
#: reads is rejected at the cache, not failed on later.
ACCESSORS = (
    "core_cycles", "core_instructions", "dram", "l3_hits", "l3_misses",
    "useful_prefetches", "demand_accesses", "llp_accuracy", "metadata_hit_rate",
)


def _count(path: str) -> property:
    """A read-only accessor for the counter at ``path``."""
    return property(lambda self: int(self.metrics[path]))


def _rate(*paths: str) -> property:
    """A read-only accessor for the first of ``paths`` present, else ``None``.

    Each path belongs to one controller, so a result holds at most one.
    """
    def get(self) -> Optional[float]:
        for path in paths:
            if path in self.metrics:
                return float(self.metrics[path])
        return None

    return property(get)


class ResultDecodeError(ValueError):
    """A serialized ``SimResult`` could not be decoded.

    Raised on schema-version mismatches, missing fields or metric paths,
    and type errors; the disk cache treats any of these as "entry absent"
    and re-simulates.
    """


@dataclass
class SimResult:
    """Everything a finished simulation reports."""

    workload: str
    design: str
    #: measured-window telemetry keyed by registry path
    metrics: Dict[str, MetricValue]
    #: host-side provenance, never simulated output: ``sim_seconds`` (wall
    #: time of the simulation), and on a cache replay ``cached`` and
    #: ``serve_seconds``
    extras: Dict[str, float] = field(default_factory=dict)
    #: phase-resolved telemetry samples (``None`` unless the run was
    #: given a positive ``sample_interval``); purely additive — core
    #: metrics are identical with or without it.
    timeseries: Optional[TimeSeries] = None

    # --- accessors: fixed registry paths -------------------------------

    l3_hits = _count("llc.hits")
    l3_misses = _count("llc.misses")
    useful_prefetches = _count("llc.useful_prefetches")
    demand_accesses = _count("llc.demand_accesses")
    #: PTMC's line location predictor
    llp_accuracy = _rate("ptmc.llp.accuracy")
    #: table-based TMC's or MemZip's metadata cache
    metadata_hit_rate = _rate(
        "tmc_table.metadata_cache.hit_rate", "memzip.metadata_cache.hit_rate"
    )

    def _per_core(self, name: str) -> List[int]:
        # every id below the highest ``core.<id>.*`` must carry ``name``
        cores = 1 + max(
            (int(path.split(".")[1]) for path in self.metrics if path.startswith("core.")),
            default=-1,
        )
        return [int(self.metrics[f"core.{c}.{name}"]) for c in range(cores)]

    @property
    def core_cycles(self) -> List[int]:
        """Measured cycles of each core (``core.<id>.cycles``)."""
        return self._per_core("cycles")

    @property
    def core_instructions(self) -> List[int]:
        """Measured instructions of each core (``core.<id>.instructions``)."""
        return self._per_core("instructions")

    @property
    def dram(self) -> DRAMStats:
        """The measured window's DRAM counters (``dram.*``).

        ``accesses_by_category`` holds only the categories with traffic.
        """
        metrics = self.metrics
        stats = DRAMStats(
            **{name: int(metrics["dram." + name]) for name in _DRAM_COUNTERS}
        )
        for category in Category:
            count = int(metrics[_ACCESSES + category.value])
            if count:
                stats.accesses_by_category[category] = count
        return stats

    # --- derived -------------------------------------------------------

    @property
    def elapsed_cycles(self) -> int:
        """Wall-clock of the whole run (slowest core)."""
        return max(self.core_cycles, default=0)

    @property
    def ipc_per_core(self) -> List[float]:
        return [
            instr / cycles if cycles else 0.0
            for instr, cycles in zip(self.core_instructions, self.core_cycles)
        ]

    @property
    def l3_hit_rate(self) -> float:
        total = self.l3_hits + self.l3_misses
        return self.l3_hits / total if total else 0.0

    def bandwidth_by_category(self) -> Dict[Category, int]:
        """DRAM accesses per accounting bucket (64B each)."""
        return dict(self.dram.accesses_by_category)

    @property
    def total_dram_accesses(self) -> int:
        return self.dram.total_accesses

    # --- versioned JSON wire format (used by the on-disk result cache) ---

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation, tagged with the schema version."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": self.workload,
            "design": self.design,
            # sorted keys: dumped results diff deterministically even
            # through serializers that preserve insertion order
            "metrics": dict(sorted(self.metrics.items())),
            "extras": dict(sorted(self.extras.items())),
            "timeseries": (
                None if self.timeseries is None else self.timeseries.to_json_dict()
            ),
        }

    @classmethod
    def from_json_dict(cls, payload: Any) -> "SimResult":
        """Inverse of :meth:`to_json_dict`; raises :class:`ResultDecodeError`."""
        if not isinstance(payload, dict):
            raise ResultDecodeError("result payload is not an object")
        schema = payload.get("schema")
        if schema != CACHE_SCHEMA_VERSION:
            raise ResultDecodeError(
                f"result schema {schema!r} is not {CACHE_SCHEMA_VERSION}"
            )
        try:
            timeseries = payload["timeseries"]
            result = cls(
                workload=str(payload["workload"]),
                design=str(payload["design"]),
                metrics={str(k): _metric(v) for k, v in payload["metrics"].items()},
                extras={str(k): float(v) for k, v in payload["extras"].items()},
                timeseries=(
                    None if timeseries is None else TimeSeries.from_json_dict(timeseries)
                ),
            )
            for name in ACCESSORS:
                getattr(result, name)
        # TimeSeriesDecodeError is a ValueError
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ResultDecodeError(f"malformed result payload: {exc}") from exc
        unknown = sorted(
            path for path in result.metrics
            if path.startswith(_ACCESSES) and path not in _ACCESS_PATHS
        )
        if unknown:
            raise ResultDecodeError(f"unknown DRAM access categories: {unknown}")
        return result

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultDecodeError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(payload)


def _metric(value: Any) -> MetricValue:
    """A stored metric value: a JSON number, never a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"metric value {value!r} is not a number")
    return value


def weighted_speedup(result: SimResult, baseline: SimResult) -> float:
    """Paper's metric: per-core IPC normalised to the baseline, averaged.

    In rate mode every core runs the same trace in both systems, so this
    reduces to the mean of per-core cycle ratios.
    """
    if result.core_instructions != baseline.core_instructions:
        raise ValueError("weighted speedup requires identical per-core traces")
    ratios = [
        ipc / base_ipc if base_ipc else 0.0
        for ipc, base_ipc in zip(result.ipc_per_core, baseline.ipc_per_core)
    ]
    return sum(ratios) / len(ratios) if ratios else 0.0


def normalized_bandwidth(result: SimResult, baseline: SimResult) -> Dict[str, float]:
    """Per-category DRAM traffic normalised to baseline *total* traffic.

    This is the y-axis of the paper's Figs. 4 and 14: stack heights sum to
    (compressed traffic / uncompressed traffic).
    """
    denom = baseline.total_dram_accesses or 1
    return {
        category.value: count / denom
        for category, count in sorted(
            result.bandwidth_by_category().items(), key=lambda kv: kv[0].value
        )
    }


def geometric_mean(values) -> float:
    """Geomean (the paper's average for speedups)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))

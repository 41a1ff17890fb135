"""Simulation results and the metrics derived from them."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.types import Category
from repro.dram.system import DRAMStats
from repro.obs.timeseries import TimeSeries, TimeSeriesDecodeError
from repro.telemetry import MetricValue

#: Version of the :class:`SimResult` JSON wire format.  Bump whenever the
#: serialized shape changes *or* when simulation semantics change enough
#: that previously cached results must not be reused — every persisted
#: result embeds this and the disk cache treats a mismatch as a miss.
#: v2: added the ``metrics`` mapping (telemetry-registry paths).
#: v3: added the optional ``timeseries`` envelope (interval sampling).
#: v2 payloads still decode (the added field is optional and the
#: simulation semantics are unchanged), so warm disk caches survive.
RESULT_SCHEMA_VERSION = 3

#: Schema versions :meth:`SimResult.from_json_dict` accepts.
SUPPORTED_SCHEMA_VERSIONS = (2, RESULT_SCHEMA_VERSION)


class ResultDecodeError(ValueError):
    """A serialized ``SimResult`` could not be decoded.

    Raised on schema-version mismatches, missing fields, and type errors;
    the disk cache treats any of these as "entry absent" and re-simulates.
    """


@dataclass
class SimResult:
    """Everything a finished simulation reports."""

    workload: str
    design: str
    core_cycles: List[int]
    core_instructions: List[int]
    dram: DRAMStats
    l3_hits: int = 0
    l3_misses: int = 0
    useful_prefetches: int = 0
    demand_accesses: int = 0
    llp_accuracy: Optional[float] = None
    metadata_hit_rate: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)
    #: measured-window telemetry keyed by registry path (``dram.row_hits``,
    #: ``ptmc.llp.accuracy``, ...); the legacy fields above are projections
    #: of this mapping kept for established consumers.
    metrics: Dict[str, MetricValue] = field(default_factory=dict)
    #: phase-resolved telemetry samples (``None`` unless the run was
    #: observed with an :class:`~repro.obs.sampler.ObsConfig` that
    #: enabled interval sampling); purely additive — core metrics are
    #: identical with or without it.
    timeseries: Optional[TimeSeries] = None

    @property
    def elapsed_cycles(self) -> int:
        """Wall-clock of the whole run (slowest core)."""
        return max(self.core_cycles) if self.core_cycles else 0

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
            "schema": RESULT_SCHEMA_VERSION,
            "workload": self.workload,
            "design": self.design,
            "core_cycles": list(self.core_cycles),
            "core_instructions": list(self.core_instructions),
            "dram": {
                "accesses_by_category": {
                    category.value: count
                    for category, count in sorted(
                        self.dram.accesses_by_category.items(),
                        key=lambda kv: kv[0].value,
                    )
                },
                "row_hits": self.dram.row_hits,
                "row_misses": self.dram.row_misses,
                "activations": self.dram.activations,
                "reads": self.dram.reads,
                "writes": self.dram.writes,
                "busy_cycles": self.dram.busy_cycles,
                "refresh_stalls": self.dram.refresh_stalls,
            },
            "l3_hits": self.l3_hits,
            "l3_misses": self.l3_misses,
            "useful_prefetches": self.useful_prefetches,
            "demand_accesses": self.demand_accesses,
            "llp_accuracy": self.llp_accuracy,
            "metadata_hit_rate": self.metadata_hit_rate,
            "extras": dict(sorted(self.extras.items())),
            # sorted paths: dumped metrics diff deterministically even
            # through serializers that preserve insertion order
            "metrics": dict(sorted(self.metrics.items())),
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
        if schema not in SUPPORTED_SCHEMA_VERSIONS:
            raise ResultDecodeError(
                f"result schema {schema!r} not in supported {SUPPORTED_SCHEMA_VERSIONS}"
            )
        try:
            timeseries_payload = payload.get("timeseries") if schema >= 3 else None
            try:
                timeseries = (
                    None
                    if timeseries_payload is None
                    else TimeSeries.from_json_dict(timeseries_payload)
                )
            except TimeSeriesDecodeError as exc:
                raise ResultDecodeError(str(exc)) from exc
            dram_payload = payload["dram"]
            dram = DRAMStats(
                accesses_by_category={
                    Category(name): int(count)
                    for name, count in dram_payload["accesses_by_category"].items()
                },
                row_hits=int(dram_payload["row_hits"]),
                row_misses=int(dram_payload["row_misses"]),
                activations=int(dram_payload["activations"]),
                reads=int(dram_payload["reads"]),
                writes=int(dram_payload["writes"]),
                busy_cycles=int(dram_payload["busy_cycles"]),
                refresh_stalls=int(dram_payload["refresh_stalls"]),
            )
            llp_accuracy = payload["llp_accuracy"]
            metadata_hit_rate = payload["metadata_hit_rate"]
            return cls(
                workload=str(payload["workload"]),
                design=str(payload["design"]),
                core_cycles=[int(c) for c in payload["core_cycles"]],
                core_instructions=[int(i) for i in payload["core_instructions"]],
                dram=dram,
                l3_hits=int(payload["l3_hits"]),
                l3_misses=int(payload["l3_misses"]),
                useful_prefetches=int(payload["useful_prefetches"]),
                demand_accesses=int(payload["demand_accesses"]),
                llp_accuracy=None if llp_accuracy is None else float(llp_accuracy),
                metadata_hit_rate=(
                    None if metadata_hit_rate is None else float(metadata_hit_rate)
                ),
                extras={str(k): float(v) for k, v in payload["extras"].items()},
                metrics={
                    str(k): (int(v) if isinstance(v, int) else float(v))
                    for k, v in payload["metrics"].items()
                },
                timeseries=timeseries,
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ResultDecodeError(f"malformed result payload: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultDecodeError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(payload)


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

"""Simulation engine: configs, system wiring, runner, caches, results.

A run's :class:`SimResult` is its measured-window telemetry (``metrics``,
keyed by registry path); the paper's quantities (``core_cycles``,
``dram``, ``llp_accuracy``, ...) are accessors over fixed paths of it.
A stored result carries :data:`repro.sim.results.CACHE_SCHEMA_VERSION`
in both its disk-cache key and its payload.
"""

from repro.sim.config import SamplingConfig, SimConfig, bench_config, paper_config, quick_config
from repro.sim.results import (
    ResultDecodeError,
    SimResult,
    geometric_mean,
    normalized_bandwidth,
    weighted_speedup,
)
from repro.sim.dma import DMAAgent
from repro.sim.diskcache import DiskCache, cache_key, workload_identity
from repro.sim.parallel import BatchReport, run_batch, suite_geomean, sweep
from repro.sim.runner import clear_cache, compare, configure_disk_cache, simulate
from repro.sim.system import DESIGNS, SimulatedSystem, build_controller

__all__ = [
    "SamplingConfig",
    "SimConfig",
    "bench_config",
    "paper_config",
    "quick_config",
    "ResultDecodeError",
    "SimResult",
    "DMAAgent",
    "DiskCache",
    "BatchReport",
    "cache_key",
    "workload_identity",
    "geometric_mean",
    "normalized_bandwidth",
    "weighted_speedup",
    "clear_cache",
    "compare",
    "configure_disk_cache",
    "run_batch",
    "simulate",
    "suite_geomean",
    "sweep",
    "DESIGNS",
    "SimulatedSystem",
    "build_controller",
]

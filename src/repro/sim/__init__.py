"""Simulation engine: configs, system wiring, runner, caches, results."""

from repro.sim.config import SamplingConfig, SimConfig, bench_config, paper_config, quick_config
from repro.sim.results import (
    RESULT_SCHEMA_VERSION,
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
    "RESULT_SCHEMA_VERSION",
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

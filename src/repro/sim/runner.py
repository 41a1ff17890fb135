"""High-level experiment runner with layered result caching.

``simulate`` runs (workload, design, config) once per key and serves
repeats from two layers:

1. an in-process memo (the per-session cache the benchmarks share), and
2. an optional content-addressed on-disk cache
   (:mod:`repro.sim.diskcache`) that survives across processes, enabled
   with :func:`configure_disk_cache` — the CLI and the benchmark harness
   turn it on by default.

Keys are the full identity of the run — the workload's complete
parameter set, the design, and the resolved config — so two workloads
that share a name but differ in parameters never alias each other's
results.  ``compare`` produces the paper's headline metric: weighted
speedup over the uncompressed baseline.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.sampler import ObsConfig
from repro.obs.tracing import span
from repro.sim.config import SimConfig, bench_config
from repro.sim.diskcache import DiskCache, cache_key
from repro.sim.results import SimResult, weighted_speedup
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads.suites import Workload, get_workload

_memo: Dict[str, SimResult] = {}
_disk: Optional[DiskCache] = None


@dataclass
class RunnerStats:
    """Process-wide execution counters (surfaced by the CLI/benchmarks)."""

    executed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    sim_seconds: float = 0.0
    #: wall time spent *serving* cache hits (lookup + replay copy) —
    #: tracked apart from ``sim_seconds`` so replays never masquerade as
    #: simulation time
    hit_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "executed": self.executed,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "sim_seconds": round(self.sim_seconds, 6),
            "hit_seconds": round(self.hit_seconds, 6),
        }

    def reset(self) -> None:
        self.executed = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.sim_seconds = 0.0
        self.hit_seconds = 0.0


stats = RunnerStats()


def configure_disk_cache(path=None, enabled: bool = True) -> Optional[DiskCache]:
    """Enable (or disable) the persistent result cache for this process.

    ``path=None`` uses the default directory (``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-ptmc/sim``).  Returns the active cache, if any.
    """
    global _disk
    _disk = DiskCache(path) if enabled else None
    return _disk


def disk_cache() -> Optional[DiskCache]:
    """The currently configured on-disk cache (``None`` when disabled)."""
    return _disk


def resolve_workload(workload) -> Workload:
    """Accept a roster name, a ``trace:<hash>`` reference, or an object.

    ``trace:<hash-or-prefix>`` resolves through the process-default
    :class:`~repro.traces.store.TraceStore` into a
    :class:`~repro.traces.replay.TraceWorkload`, whose full trace hash
    participates in the disk-cache key like any other workload field.
    """
    if isinstance(workload, str):
        if workload.startswith("trace:"):
            from repro.traces.replay import trace_workload

            return trace_workload(workload[len("trace:"):])
        return get_workload(workload)
    return workload


def _execute(
    workload: Workload,
    design: str,
    config: SimConfig,
    obs: Optional[ObsConfig] = None,
) -> SimResult:
    start = time.perf_counter()
    with span(
        "runner.execute", category="runner", design=design, workload=workload.name
    ):
        result = SimulatedSystem(workload, design, config, obs=obs).run()
    elapsed = time.perf_counter() - start
    result.extras["sim_seconds"] = elapsed
    stats.executed += 1
    stats.sim_seconds += elapsed
    return result


def _obs_satisfied(result: SimResult, obs: Optional[ObsConfig]) -> bool:
    """Whether a cached result carries the telemetry ``obs`` asks for.

    Observability is not part of the cache key (it must never perturb
    result identity), so a hit may predate the sampling request.  Such a
    hit is still *correct* — core metrics are identical either way — but
    it lacks the requested timeseries, so the runner re-executes and
    overwrites the stored entry with the richer one.
    """
    if obs is None or not obs.sampling:
        return True
    return result.timeseries is not None and result.timeseries.interval == obs.sample_interval


def _serve_hit(result: SimResult, started: float) -> SimResult:
    """Prepare a cached result for replay to a caller.

    The memoized/stored object is never handed out (or mutated): callers
    get a deep copy whose extras say it *is* a replay (``cached = 1.0``)
    and how long the serve took (``serve_seconds``); the serving layer is
    the ``source`` element of the caller's tuple.
    The original ``sim_seconds`` — the wall time of the simulation that
    produced the result, wherever it ran — is left intact as provenance;
    it no longer doubles as "how long this call took".
    """
    replay = copy.deepcopy(result)
    elapsed = time.perf_counter() - started
    stats.hit_seconds += elapsed
    replay.extras["cached"] = 1.0
    replay.extras["serve_seconds"] = elapsed
    return replay


def simulate_with_source(
    workload,
    design: str,
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    obs: Optional[ObsConfig] = None,
) -> Tuple[SimResult, str]:
    """Like :func:`simulate`, also reporting where the result came from.

    The source is one of ``"memory"``, ``"disk"`` or ``"executed"``.
    Cache hits are served as marked copies — see :func:`_serve_hit`.
    When ``obs`` requests interval sampling, a cached result without a
    matching timeseries is treated as a miss: the run re-executes (same
    core metrics, by construction) and the cached entry is upgraded.
    """
    workload = resolve_workload(workload)
    if config is None:
        config = bench_config()
    if not use_cache:
        return _execute(workload, design, config, obs=obs), "executed"
    started = time.perf_counter()
    key = cache_key(workload, design, config)
    cached = _memo.get(key)
    if cached is not None and _obs_satisfied(cached, obs):
        stats.memory_hits += 1
        return _serve_hit(cached, started), "memory"
    if _disk is not None:
        loaded = _disk.get(key)
        if loaded is not None and _obs_satisfied(loaded, obs):
            stats.disk_hits += 1
            _memo[key] = loaded
            return _serve_hit(loaded, started), "disk"
    result = _execute(workload, design, config, obs=obs)
    _memo[key] = result
    if _disk is not None:
        _disk.put(key, result)
    return result, "executed"


def simulate(
    workload,
    design: str,
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    obs: Optional[ObsConfig] = None,
) -> SimResult:
    """Run one simulation (memo -> disk cache -> execute)."""
    result, _ = simulate_with_source(workload, design, config, use_cache, obs=obs)
    return result


def adopt(key: str, result: SimResult) -> None:
    """Seed the in-process memo with a result computed elsewhere.

    Used by the parallel sweep engine to make worker-computed results
    visible to subsequent serial calls in the parent process.
    """
    _memo.setdefault(key, result)


def compare(
    workload,
    design: str,
    config: Optional[SimConfig] = None,
    baseline: str = "uncompressed",
) -> float:
    """Weighted speedup of ``design`` over ``baseline`` on one workload."""
    result = simulate(workload, design, config)
    base = simulate(workload, baseline, config)
    return weighted_speedup(result, base)


def clear_cache() -> None:
    """Drop memoized simulation results (frees memory between sweeps)."""
    _memo.clear()


def execution_stats() -> Dict[str, float]:
    """Runner counters plus the disk cache's, for reporting."""
    payload: Dict[str, float] = dict(stats.as_dict())
    if _disk is not None:
        for name, value in _disk.counters.as_dict().items():
            payload[f"disk_{name}"] = value
    return payload


def register_stats(scope) -> None:
    """Expose the process-wide runner counters under ``scope``.

    Registers the same counts :func:`execution_stats` reports — cache
    layer hits and executions, plus the disk cache's own counters —
    as sourced telemetry stats, so ``repro stats`` and the service's
    ``/metrics`` endpoint surface them uniformly as ``runner.*`` paths.
    The disk-cache sources read :func:`disk_cache` dynamically, so a
    later :func:`configure_disk_cache` is picked up without
    re-registering.
    """
    scope.counter("executed", lambda: stats.executed, doc="simulations executed")
    scope.counter("memory_hits", lambda: stats.memory_hits, doc="in-process memo hits")
    scope.counter("disk_hits", lambda: stats.disk_hits, doc="disk-cache hits")
    scope.gauge(
        "sim_seconds",
        lambda: round(stats.sim_seconds, 6),
        doc="total wall time spent executing simulations",
    )
    scope.gauge(
        "hit_seconds",
        lambda: round(stats.hit_seconds, 6),
        doc="total wall time spent serving cached results",
    )
    disk_scope = scope.scope("disk")

    def _disk_counter(name: str):
        return lambda: getattr(_disk.counters, name) if _disk is not None else 0

    for name in ("hits", "misses", "stores", "evicted_corrupt"):
        disk_scope.counter(name, _disk_counter(name), doc=f"disk cache {name}")


__all__ = [
    "DESIGNS",
    "RunnerStats",
    "adopt",
    "clear_cache",
    "compare",
    "configure_disk_cache",
    "disk_cache",
    "execution_stats",
    "register_stats",
    "resolve_workload",
    "simulate",
    "simulate_with_source",
    "stats",
]

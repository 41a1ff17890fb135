"""High-level experiment runner over the one result cache.

``simulate`` serves a (workload, design, config) run from the
content-addressed on-disk cache (:mod:`repro.sim.diskcache`) when one is
configured with :func:`configure_disk_cache` — the CLI, the benchmark
harness and the service turn it on — and otherwise executes it.  No
result is kept in process memory: a result comes from disk or from a
fresh run.

Keys are the full identity of the run — the workload's complete
parameter set, the design, the resolved config and the code that
simulates it — so two workloads that share a name but differ in
parameters never alias each other's results, and no stored result is
served to different code.  ``compare`` produces the paper's headline
metric: weighted speedup over the uncompressed baseline.

An executed run shares its workload's data with every other run of that
workload in this process: rendered lines, compression memos and decoded
trace records live in one
:class:`~repro.workloads.data.WorkloadData` per workload
(:func:`workload_data`), found by the workload's content and dropped
least recently used first once the stores hold more than
:data:`WORKLOAD_DATA_BOUND` entries.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Tuple

from repro.obs.tracing import span
from repro.sim.config import SimConfig, bench_config
from repro.sim.diskcache import DiskCache, cache_key, workload_identity
from repro.sim.results import SimResult, weighted_speedup
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads.data import WorkloadData
from repro.workloads.suites import Workload, get_workload

_disk: Optional[DiskCache] = None

#: The run options a run may name beside its workload and design, by the
#: names a job's config carries (:func:`resolve_run` reads them): three
#: ``SimConfig`` fields, and three options of a ``trace:<hash>`` workload,
#: each mapped to the ``TraceWorkload`` field it sets and that field's type.
CONFIG_OPTIONS = frozenset({"ops_per_core", "warmup_ops", "llc_policy"})
TRACE_OPTIONS = {
    "trace_limit": ("limit", int),
    "trace_loop": ("loop", bool),
    "trace_seed": ("seed", int),
}
RUN_OPTIONS = CONFIG_OPTIONS | frozenset(TRACE_OPTIONS)

#: Entries (rendered lines, compression payloads and sizes, trace
#: records) the workload stores of one process may retain after a run,
#: beside the store that run used.  The 12 roster workloads a service
#: rotates held 81,440 after 240 service-sized ``ideal`` jobs (73,117
#: before stores kept stored line versions), so all of them stay warm;
#: one bench-scale ``pr.twitter`` ``ideal`` store holds about 514,000
#: and displaces the rest.  Six bench-scale runs of six workloads in one
#: process peaked at 143.9 MB with this bound, and at 174.4 MB with
#: process-wide memos (2-core VM, Python 3.11).
WORKLOAD_DATA_BOUND = 150_000

#: this process's workload stores by serialized workload identity, least
#: recently used first
_workload_data: "OrderedDict[str, WorkloadData]" = OrderedDict()


@dataclass
class RunnerStats:
    """Process-wide execution counters (surfaced by the CLI/benchmarks)."""

    executed: int = 0
    disk_hits: int = 0
    sim_seconds: float = 0.0
    #: wall time spent *serving* cache hits (lookup + decode) — tracked
    #: apart from ``sim_seconds`` so replays never masquerade as
    #: simulation time
    hit_seconds: float = 0.0

    def reset(self) -> None:
        self.executed = 0
        self.disk_hits = 0
        self.sim_seconds = 0.0
        self.hit_seconds = 0.0

    def add(self, source: str, seconds: float) -> None:
        """Count one run by its source, ``"executed"`` or ``"disk"``.

        A pool process counts its runs only in its own stats, so the
        process that farmed a run out adds the ``(source, seconds)`` the
        pool returned (``parallel.run_batch``, the service ``Worker``).
        """
        if source == "executed":
            self.executed += 1
            self.sim_seconds += seconds
        else:
            self.disk_hits += 1
            self.hit_seconds += seconds


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


def resolve_run(workload, options: Mapping[str, Any]) -> Tuple[Workload, SimConfig]:
    """The ``(workload, config)`` a workload reference and run options name.

    ``workload`` is whatever :func:`resolve_workload` accepts and
    ``options`` maps names of :data:`RUN_OPTIONS` to values; a name left
    out keeps its :func:`~repro.sim.config.bench_config` or
    :class:`~repro.traces.replay.TraceWorkload` default.  The CLI, the
    daemon's submission and every worker's claim resolve a run here, so
    one spelling of a run gives one cache key wherever it runs.

    Raises :class:`ValueError` on an unknown option, a trace option on a
    workload that replays no trace, or a value the config or the trace
    workload rejects; :class:`KeyError` on an unknown roster name and
    :class:`~repro.traces.store.TraceStoreError` on an unknown trace.
    """
    unknown = set(options) - RUN_OPTIONS
    if unknown:
        raise ValueError(
            f"unsupported config overrides {sorted(unknown)}; "
            f"allowed: {sorted(RUN_OPTIONS)}"
        )
    workload = resolve_workload(workload)
    trace_keys = sorted(set(options) & set(TRACE_OPTIONS))
    if trace_keys:
        from repro.traces.replay import TraceWorkload

        if not isinstance(workload, TraceWorkload):
            raise ValueError(f"{trace_keys} only apply to trace:<hash> workloads")
        try:
            workload = replace(workload, **{
                field: kind(options[key])
                for key, (field, kind) in TRACE_OPTIONS.items() if key in options
            })
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad trace overrides: {exc}") from None
    try:
        config = bench_config(**{k: v for k, v in options.items() if k in CONFIG_OPTIONS})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config overrides: {exc}") from None
    return workload, config


def workload_data(workload: Workload) -> WorkloadData:
    """This process's store for ``workload``, made on first use.

    Found by the workload's full parameter identity, never by object: a
    pickled or rebuilt copy of a workload finds the same store.  The key
    is the workload alone, since the data depend on neither the run
    length nor ``SimConfig.seed``: a longer run of a workload reuses
    what a shorter one filled.
    """
    key = json.dumps(workload_identity(workload), sort_keys=True, separators=(",", ":"))
    data = _workload_data.pop(key, None)
    if data is None:
        data = WorkloadData()
    _workload_data[key] = data  # now the most recently used
    return data


def _trim_workload_data(keep: WorkloadData) -> None:
    """Drop least recently used stores, never ``keep``, until the rest
    hold at most :data:`WORKLOAD_DATA_BOUND` entries."""
    held = sum(data.entries() for data in _workload_data.values())
    for key, data in list(_workload_data.items()):
        if held <= WORKLOAD_DATA_BOUND:
            break
        if data is not keep:
            del _workload_data[key]
            held -= data.entries()


def workload_data_held() -> Tuple[int, int]:
    """``(workloads, entries)``: the stores this process retains."""
    return len(_workload_data), sum(data.entries() for data in _workload_data.values())


def _execute(
    workload: Workload,
    design: str,
    config: SimConfig,
    sample_interval: int = 0,
) -> SimResult:
    data = workload_data(workload)
    start = time.perf_counter()
    with span(
        "runner.execute", category="runner", design=design, workload=workload.name
    ):
        result = SimulatedSystem(
            workload, design, config, sample_interval=sample_interval, workload_data=data
        ).run()
    elapsed = time.perf_counter() - start
    _trim_workload_data(data)
    result.extras["sim_seconds"] = elapsed
    stats.add("executed", elapsed)
    return result


def _obs_satisfied(result: SimResult, sample_interval: int) -> bool:
    """Whether a cached result carries the time series a run asks for.

    The sampling interval is not part of the cache key (it must never
    perturb result identity), so a hit may predate the sampling request.
    Such a hit is still *correct* — core metrics are identical either
    way — but it lacks the requested timeseries, so the runner
    re-executes and overwrites the stored entry with the richer one.
    """
    if sample_interval <= 0:
        return True
    return result.timeseries is not None and result.timeseries.interval == sample_interval


def _serve_hit(result: SimResult, started: float) -> SimResult:
    """Mark a result decoded from disk as a replay and hand it out.

    Every disk read decodes a new object, so the caller owns it and it
    is marked in place: its extras say it *is* a replay (``cached =
    1.0``) and how long the serve took (``serve_seconds``).  The
    original ``sim_seconds`` — the wall time of the simulation that
    produced the result, wherever it ran — is left intact as provenance;
    it does not double as "how long this call took".
    """
    elapsed = time.perf_counter() - started
    stats.add("disk", elapsed)
    result.extras["cached"] = 1.0
    result.extras["serve_seconds"] = elapsed
    return result


def simulate_with_source(
    workload,
    design: str,
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    sample_interval: int = 0,
) -> Tuple[SimResult, str]:
    """Like :func:`simulate`, also reporting where the result came from.

    The source is ``"disk"`` or ``"executed"``.  Disk hits are served
    marked — see :func:`_serve_hit`.  With no disk cache configured (or
    ``use_cache=False``) every call executes.  A positive
    ``sample_interval`` samples telemetry every that many line-accesses
    into the result's time series; a cached result without a matching
    series is then treated as a miss: the run re-executes (same core
    metrics, by construction) and the cached entry is upgraded.
    """
    workload = resolve_workload(workload)
    if config is None:
        config = bench_config()
    disk = _disk if use_cache else None
    if disk is None:
        return _execute(workload, design, config, sample_interval), "executed"
    started = time.perf_counter()
    key = cache_key(workload, design, config)
    loaded = disk.get(key)
    if loaded is not None and _obs_satisfied(loaded, sample_interval):
        return _serve_hit(loaded, started), "disk"
    result = _execute(workload, design, config, sample_interval)
    disk.put(key, result)
    return result, "executed"


def simulate(
    workload,
    design: str,
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    sample_interval: int = 0,
) -> SimResult:
    """Run one simulation (disk cache -> execute)."""
    result, _ = simulate_with_source(workload, design, config, use_cache, sample_interval)
    return result


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


def register_stats(scope) -> None:
    """Expose the process-wide runner counters under ``scope``.

    Executions, disk hits and their wall times, plus the disk cache's
    own counters, register as sourced telemetry stats, so ``repro
    stats``, the service's ``/metrics`` endpoint and the benchmark
    harness read them as ``runner.*`` paths.
    The disk-cache sources read :func:`disk_cache` dynamically, so a
    later :func:`configure_disk_cache` is picked up without
    re-registering.
    """
    scope.counter("executed", lambda: stats.executed, doc="simulations executed")
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
    "CONFIG_OPTIONS",
    "DESIGNS",
    "RUN_OPTIONS",
    "RunnerStats",
    "TRACE_OPTIONS",
    "WORKLOAD_DATA_BOUND",
    "compare",
    "configure_disk_cache",
    "disk_cache",
    "register_stats",
    "resolve_run",
    "resolve_workload",
    "simulate",
    "simulate_with_source",
    "stats",
    "workload_data",
    "workload_data_held",
]

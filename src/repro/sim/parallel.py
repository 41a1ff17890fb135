"""Sweep execution, in-process or over a process pool: the one sweep engine.

The (workload, design, config) space is embarrassingly parallel: every
simulation is a deterministic pure function of its seeds, so fanning a
sweep out over a :class:`~concurrent.futures.ProcessPoolExecutor`
produces bitwise-identical results to running it in-process while first
runs scale with cores.  Workers share the parent's on-disk result cache
(:mod:`repro.sim.diskcache`), so a re-run — even in a cold process —
satisfies every job from disk without executing a single simulation.

:func:`run_batch` executes an explicit list of (workload, design,
config) identities and reports per-run provenance and wall time;
:func:`sweep` and :func:`suite_geomean` (exported as ``repro.sweep``
and ``repro.suite_geomean``) build on it.  With ``jobs <= 1`` every job
runs in-process through :func:`repro.sim.runner.simulate_with_source`,
the same call a pool process makes.  Either way the calling process's
``runner.stats`` counts every run of the batch.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracing import instant, span
from repro.sim import runner
from repro.sim.config import SimConfig
from repro.sim.results import SimResult, geometric_mean, weighted_speedup
from repro.workloads.suites import Workload

#: One unit of work: a (workload, design, config) identity.
Job = Tuple[Workload, str, SimConfig]

#: How often a pool process checks that its parent is still alive, seconds.
PARENT_CHECK_S = 0.5


@dataclass
class BatchReport:
    """Everything a finished batch reports, in job order."""

    results: List[SimResult] = field(default_factory=list)
    #: (workload name, design) identifying each result, in job order
    job_names: List[Tuple[str, str]] = field(default_factory=list)
    #: where each result came from: "disk" | "executed"
    sources: List[str] = field(default_factory=list)
    #: per-job wall time as observed by the process that served it
    seconds: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs_used: int = 1

    @property
    def executed(self) -> int:
        return self.sources.count("executed")

    def counts(self) -> Dict[str, int]:
        return {
            "jobs": len(self.sources),
            "executed": self.executed,
            "disk_hits": self.sources.count("disk"),
        }

    def metrics_matrix(self) -> List[Dict[str, Any]]:
        """One JSON-ready row per job: workload, design, telemetry mapping.

        Metric keys are sorted so dumped matrices are byte-stable across
        runs and serializers that preserve insertion order.
        """
        return [
            {"workload": w, "design": d, "metrics": dict(sorted(result.metrics.items()))}
            for (w, d), result in zip(self.job_names, self.results)
        ]


def init_worker(cache_dir: Optional[str], trace_dir: Optional[str] = None) -> None:
    """Pool initializer: point the worker at the shared disk cache.

    Public because the job-queue service (:mod:`repro.service`) builds
    its own worker pool from the same primitives.  ``trace_dir``
    additionally points the worker at the parent's trace store, so
    trace-backed jobs replay the same content-addressed records.

    A forked pool process inherits its parent's Python signal handlers:
    under ``repro serve`` or ``repro worker`` SIGTERM would only call
    ``request_stop`` on this process's copy of the parent, and
    ``terminate()`` could never stop a stuck job.  So SIGTERM's default
    action is restored here (SIGINT keeps the inherited handler), and
    the process exits once its parent is gone, so a SIGKILLed parent
    leaves no orphans.  The parent is the PID fixed when this process was
    created, not ``os.getppid()`` now: a parent killed before this
    initializer runs has already handed its children to another process.
    That PID is the OS parent because the pools fork (the default start
    method on Linux through Python 3.13).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_with_parent,
        args=(multiprocessing.parent_process().pid,),
        name="repro-parent-check",
        daemon=True,
    ).start()
    if cache_dir is not None:
        runner.configure_disk_cache(cache_dir)
    if trace_dir is not None:
        from repro.traces.store import configure_trace_store

        configure_trace_store(trace_dir)


def _exit_with_parent(parent: int) -> None:
    """Exit this process once it is re-parented (``parent`` died)."""
    while os.getppid() == parent:
        time.sleep(PARENT_CHECK_S)
    os._exit(1)


def run_job(job: Job) -> Tuple[SimResult, str, float, Tuple[int, int], float]:
    """Execute one (workload, design, config) task in this process.

    Returns ``(result, source, seconds, held, rss_mb)``: ``source`` is the
    runner's provenance string (``"disk"`` | ``"executed"``), ``held``
    the ``(workloads, entries)`` this process's workload stores retain
    afterwards (:func:`repro.sim.runner.workload_data_held`) and
    ``rss_mb`` its peak resident set so far.  A pool process's stores
    and memory are its own, so the caller learns of them only this way.
    """
    workload, design, config = job
    start = time.perf_counter()
    result, source = runner.simulate_with_source(workload, design, config)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, source, seconds, runner.workload_data_held(), rss_mb


def run_batch(tasks: Sequence[Job], jobs: Optional[int] = None) -> BatchReport:
    """Execute every (workload, design, config) task, in parallel when asked.

    ``jobs`` <= 1 (or ``None``) runs serially in-process; larger values
    spread the tasks over that many worker processes.  Either way every
    job goes through the runner's disk cache, if one is configured
    (:func:`repro.sim.runner.configure_disk_cache`), so a later call for
    the same identity is served from disk in this process or any other,
    and is counted in this process's ``runner.stats``.  A ``None``
    config is :func:`~repro.sim.config.bench_config`.
    """
    resolved: List[Job] = [
        (runner.resolve_workload(workload), design, config)
        for workload, design, config in tasks
    ]
    cache_dir = None if runner.disk_cache() is None else str(runner.disk_cache().root)
    trace_dir = None
    if any(hasattr(workload, "trace_hash") for workload, _, _ in resolved):
        from repro.traces.store import trace_store

        trace_dir = str(trace_store().root)
    report = BatchReport(jobs_used=max(1, jobs or 1))
    start = time.perf_counter()
    # Tracing is parent-side only: worker processes cannot share the
    # parent's tracer, so the batch is one span and each completed job
    # lands as an instant with its provenance and wall time.
    with span(
        "sweep.run_batch",
        category="sweep",
        jobs=len(resolved),
        workers=report.jobs_used,
    ):
        if report.jobs_used <= 1:
            outcomes = [run_job(job) for job in resolved]
        else:
            with ProcessPoolExecutor(
                max_workers=report.jobs_used,
                initializer=init_worker,
                initargs=(cache_dir, trace_dir),
            ) as pool:
                outcomes = list(pool.map(run_job, resolved))
            for _, source, seconds, _, _ in outcomes:
                runner.stats.add(source, seconds)
        report.wall_seconds = time.perf_counter() - start
        for (workload, design, _), (result, source, seconds, _, _) in zip(resolved, outcomes):
            instant(
                "sweep.job_done",
                category="sweep",
                workload=workload.name,
                design=design,
                source=source,
                seconds=round(seconds, 6),
            )
            report.results.append(result)
            report.job_names.append((workload.name, design))
            report.sources.append(source)
            report.seconds.append(seconds)
    return report


def sweep_with_report(
    workloads: Iterable[Workload],
    designs: Iterable[str],
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    baseline: str = "uncompressed",
) -> Tuple[Dict[str, Dict[str, float]], BatchReport]:
    """Speedup matrix plus the batch's provenance/timing report."""
    workload_list = [runner.resolve_workload(w) for w in workloads]
    design_list = list(designs)
    needed = list(dict.fromkeys([*design_list, baseline]))
    tasks: List[Job] = [(w, d, config) for w in workload_list for d in needed]
    report = run_batch(tasks, jobs=jobs)
    by_job: Dict[Tuple[str, str], SimResult] = {
        (w.name, d): result for (w, d, _), result in zip(tasks, report.results)
    }
    matrix = {
        w.name: {
            design: weighted_speedup(by_job[(w.name, design)], by_job[(w.name, baseline)])
            for design in design_list
        }
        for w in workload_list
    }
    return matrix, report


def sweep(
    workloads: Iterable[Workload],
    designs: Iterable[str],
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    baseline: str = "uncompressed",
) -> Dict[str, Dict[str, float]]:
    """Speedup matrix: {workload: {design: weighted speedup}}."""
    matrix, _ = sweep_with_report(workloads, designs, config, jobs, baseline)
    return matrix


def suite_geomean(
    workloads: Iterable[Workload],
    design: str,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
) -> float:
    """Geometric-mean weighted speedup over a suite (the paper's averages)."""
    matrix, _ = sweep_with_report(workloads, [design], config, jobs)
    return geometric_mean(row[design] for row in matrix.values())


__all__ = [
    "BatchReport",
    "Job",
    "init_worker",
    "run_batch",
    "run_job",
    "suite_geomean",
    "sweep",
    "sweep_with_report",
]

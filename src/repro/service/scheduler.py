"""The service's execution engine: a retrying worker pool over the queue.

The :class:`Scheduler` claims jobs from the :class:`~repro.service.jobstore.JobStore`
and runs them on a :class:`~concurrent.futures.ProcessPoolExecutor`
built from the same primitives as the offline sweep engine
(:func:`repro.sim.parallel.init_worker` / :func:`repro.sim.parallel.run_job`),
so every worker writes through the shared content-addressed disk cache.

Policies, in one place:

- **Retry with exponential backoff.**  A failed attempt re-queues the
  job with ``not_before = now + base * factor**(attempts-1)`` (capped)
  until ``max_attempts`` is exhausted, then the job is ``failed`` with
  its last error recorded.  :meth:`Scheduler.record_failure` is the one
  home of this rule; the daemon applies it to remote workers' failures
  too.
- **Per-job timeout.**  A job past its deadline is treated as a failed
  attempt; the worker pool is torn down (terminating the stuck process)
  and rebuilt, and any innocent-bystander jobs in flight are re-queued
  with their claim refunded.  A future that completed between the
  deadline check and the kill is spared — it is harvested normally on
  the next pass instead of tearing the pool down for nothing.
- **Leased claims.**  The scheduler is just one worker among many: its
  claims carry a ``worker_id`` and a lease, renewed while jobs are in
  flight, and its ``finish``/``fail`` transitions are owner-guarded —
  if the daemon stalls long enough for the lease reaper to hand a job
  elsewhere, the late local result is discarded instead of clobbering
  the new owner's row.
- **Crash-orphan recovery.**  At startup every *lease-less* ``running``
  row left by a legacy daemon is re-queued; leased rows are left to the
  continuous reaper (a live remote worker may still hold them).
- **Graceful drain.**  ``request_stop()`` (wired to SIGTERM/SIGINT by
  the CLI) stops claiming, waits up to ``drain_seconds`` for in-flight
  jobs to finish, re-queues (with refund) whatever is still running,
  and leaves the store with no ``running`` rows.
- **Event-driven wake-ups.**  The run loop sleeps until :meth:`Scheduler.notify`
  wakes it: the daemon calls it when a submission queues a row, each
  pool future calls it when it finishes, and ``request_stop()`` calls
  it.  ``poll_interval`` only caps an idle sleep, so work nobody
  announces (rows written straight into the store, an expiring
  ``not_before`` backoff, a reaped lease) and the deadline and lease
  checks still run at least that often.  Pending wake-ups are dropped
  *before* a pass, never after it, so one that lands mid-pass ends the
  next sleep at once.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.obs.logging import StructuredLog
from repro.obs.tracing import async_begin, async_end
from repro.service import jobstore
from repro.service.jobstore import Job, JobStore
from repro.sim import parallel, runner
from repro.sim.config import SimConfig, bench_config
from repro.telemetry import StatScope
from repro.traces.store import TraceStoreError

#: Queue-depth histogram bounds (jobs waiting at submission time).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: Config-override keys that parameterize the *workload* (trace replay)
#: rather than the SimConfig; only valid on ``trace:<hash>`` jobs.
TRACE_CONFIG_KEYS = frozenset({"trace_limit", "trace_loop", "trace_seed"})


@dataclasses.dataclass
class ServiceStats:
    """Process-wide service counters (mirrors the runner's ``RunnerStats``)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    cancelled: int = 0
    #: submissions that joined an already-active identical job
    dedup_active: int = 0
    #: submissions served instantly from the shared disk cache
    dedup_cache: int = 0
    orphans_recovered: int = 0
    drain_requeued: int = 0

    # Distribution stats (not dataclass fields: they live in the registry
    # and are bound here by register_stats so call sites can observe into
    # them; ``None`` until a registry exists, so bare ``ServiceStats()``
    # instances in unit tests stay inert).
    job_seconds = None
    queue_depth_samples = None
    http_request_seconds = None

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def register_stats(self, scope: StatScope, store: JobStore) -> None:
        """Expose service counters plus queue/latency stats under ``scope``."""
        for name in self.as_dict():
            scope.counter(name, (lambda n=name: getattr(self, n)))
        scope.gauge("queue_depth", lambda: store.counts()[jobstore.QUEUED])
        scope.gauge("running", lambda: store.counts()[jobstore.RUNNING])
        self.job_seconds = scope.histogram(
            "job_seconds", doc="dispatch-to-completion wall time of finished jobs"
        )
        self.queue_depth_samples = scope.histogram(
            "queue_depth_samples",
            buckets=QUEUE_DEPTH_BUCKETS,
            doc="queue depth observed at each submission",
        )
        self.http_request_seconds = scope.histogram(
            "http_request_seconds", doc="HTTP request handling duration"
        )


def config_from_overrides(config: Dict) -> SimConfig:
    """The :class:`SimConfig` a job's override dict resolves to.

    ``trace_*`` overrides parameterize the workload, not the simulator
    config, so they are filtered out here and applied by
    :func:`resolve_job_workload`.
    """
    overrides = {k: v for k, v in config.items() if k not in TRACE_CONFIG_KEYS}
    return bench_config(**overrides)


def job_config(job: Job) -> SimConfig:
    """The resolved :class:`SimConfig` for one job's stored overrides."""
    return config_from_overrides(job.config)


def resolve_job_workload(workload_name: str, config: Dict):
    """The workload object a job's stored (name, config) identifies.

    Roster names resolve through the suite registry; ``trace:<hash>``
    references resolve through the process-default trace store, with
    any ``trace_*`` config overrides folded into the frozen
    :class:`~repro.traces.replay.TraceWorkload` (so they participate in
    the cache key like every other workload field).
    """
    workload = runner.resolve_workload(workload_name)
    if workload_name.startswith("trace:"):
        replacements = {}
        if "trace_limit" in config:
            replacements["limit"] = int(config["trace_limit"])
        if "trace_loop" in config:
            replacements["loop"] = bool(config["trace_loop"])
        if "trace_seed" in config:
            replacements["seed"] = int(config["trace_seed"])
        if replacements:
            workload = dataclasses.replace(workload, **replacements)
    return workload


def job_workload(job: Job):
    """The workload object for one stored job row."""
    return resolve_job_workload(job.workload, job.config)


class Scheduler:
    """Drives queued jobs through a process worker pool until stopped."""

    def __init__(
        self,
        store: JobStore,
        cache_dir: Optional[str],
        trace_dir: Optional[str] = None,
        workers: int = 2,
        default_timeout: Optional[float] = None,
        poll_interval: float = 0.05,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        backoff_max: float = 60.0,
        drain_seconds: float = 30.0,
        lease_seconds: float = 30.0,
        worker_id: Optional[str] = None,
        stats: Optional[ServiceStats] = None,
        log: Optional[StructuredLog] = None,
    ) -> None:
        self.store = store
        self.cache_dir = cache_dir
        self.trace_dir = trace_dir
        self.workers = max(1, workers)
        self.default_timeout = default_timeout
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.drain_seconds = drain_seconds
        self.lease_seconds = lease_seconds
        self.worker_id = worker_id or f"local:{os.getpid()}"
        self.stats = stats or ServiceStats()
        self.log = log or StructuredLog()
        self._stop = threading.Event()
        #: pending wake-ups of the run loop (see :meth:`notify`).  Not a
        #: ``threading.Event``: ``request_stop`` runs in signal handlers
        #: on the loop's own thread, and a handler that sets an Event
        #: while that thread holds the Event's lock (inside ``wait`` or
        #: ``clear``) deadlocks; ``SimpleQueue.put`` is reentrant.
        self._wakeups: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: job id -> (job, future, absolute deadline or None, dispatch
        #: time, next lease-renewal time)
        self._inflight: Dict[
            str, Tuple[Job, Future, Optional[float], float, float]
        ] = {}

    # -- control ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the run loop to drain and exit (signal-handler safe)."""
        self._stop.set()
        self.notify()

    def notify(self) -> None:
        """Wake the run loop now: a job was queued or one finished.

        Safe from any thread and from signal handlers.  One pass serves
        any number of wake-ups, so at most one is kept pending.
        """
        if self._wakeups.empty():
            self._wakeups.put(None)

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- main loop -------------------------------------------------------

    def run(self) -> None:
        """Block, executing jobs until :meth:`request_stop`; then drain.

        Only *lease-less* orphans (rows from a legacy scheduler) are
        recovered at boot; leased rows are the reaper's business — a
        live remote worker may still hold them.
        """
        orphans = self.store.recover_orphans(only_leaseless=True)
        self.stats.orphans_recovered += len(orphans)
        self.log.event(
            "scheduler_started", workers=self.workers, orphans_recovered=len(orphans)
        )
        self._pool = self._new_pool()
        try:
            while True:
                # Drop wake-ups before the pass, never after it, and test
                # _stop after the drop (request_stop sets it first): a
                # wake-up that lands mid-pass stays pending and ends the
                # idle sleep below at once.
                self._drop_wakeups()
                if self._stop.is_set():
                    break
                progressed = self._reap()
                progressed |= self._dispatch()
                self._renew_leases()
                if not progressed:
                    self._idle()
            self._drain()
        finally:
            self._shutdown_pool()

    def _drop_wakeups(self) -> None:
        try:
            while True:
                self._wakeups.get_nowait()
        except queue.Empty:
            pass

    def _idle(self) -> None:
        """Sleep until a wake-up arrives, at most ``poll_interval``."""
        try:
            self._wakeups.get(timeout=self.poll_interval)
        except queue.Empty:
            pass

    # -- pool management -------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=parallel.init_worker,
            initargs=(self.cache_dir, self.trace_dir),
        )

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _kill_pool(self) -> None:
        """Terminate worker processes (the only way to stop a stuck job)."""
        if self._pool is None:
            return
        for process in list(getattr(self._pool, "_processes", {}).values()):
            process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    # -- dispatch/reap ---------------------------------------------------

    def _dispatch(self) -> bool:
        dispatched = False
        while len(self._inflight) < self.workers:
            job = self.store.claim(
                worker_id=self.worker_id, lease_seconds=self.lease_seconds
            )
            if job is None:
                break
            dispatched = True
            try:
                workload = job_workload(job)
                config = job_config(job)
            except (KeyError, TypeError, ValueError, TraceStoreError) as exc:
                # Unresolvable identity can never succeed: fail terminally.
                self.store.fail(job.id, f"invalid job: {exc}")
                self.stats.failed += 1
                continue
            future = self._pool.submit(parallel.run_job, (workload, job.design, config))
            # runs on the executor's thread: it only wakes the loop, which
            # harvests the future itself
            future.add_done_callback(lambda _future: self.notify())
            timeout = job.timeout if job.timeout is not None else self.default_timeout
            deadline = (time.time() + timeout) if timeout else None
            renew_at = time.time() + self.lease_seconds / 2
            self._inflight[job.id] = (
                job, future, deadline, time.perf_counter(), renew_at
            )
            async_begin(
                "service.job",
                job.id,
                category="service",
                workload=job.workload,
                design=job.design,
            )
            self.log.event(
                "job_dispatched",
                job_id=job.id,
                workload=job.workload,
                design=job.design,
                attempt=job.attempts,
            )
        return dispatched

    def _reap(self) -> bool:
        """Harvest finished futures and enforce deadlines.

        *Every* expired job is collected per pass (a loop that keeps
        only the last one would let its siblings run unbounded until
        their own next pass), and expiry is only declared after a final
        :meth:`Future.done` check — a job that completed between the
        deadline check and the kill is harvested, not failed.
        """
        progressed = False
        now = time.time()
        expired: List[Tuple[Job, Future]] = []
        for job_id, (job, future, deadline, started, _renew) in list(
            self._inflight.items()
        ):
            if future.done():
                del self._inflight[job_id]
                progressed = True
                elapsed = time.perf_counter() - started
                if self.stats.job_seconds is not None:
                    self.stats.job_seconds.observe(elapsed)
                try:
                    result, source, _seconds = future.result()
                except Exception as exc:  # noqa: BLE001 — worker error is data
                    error = f"{type(exc).__name__}: {exc}"
                    async_end(
                        "service.job", job_id, category="service", outcome="failed"
                    )
                    self.record_failure(job, error)
                else:
                    del result  # persisted by the worker via the disk cache
                    if self.store.finish(job_id, source, worker_id=self.worker_id):
                        self.stats.completed += 1
                        async_end(
                            "service.job", job_id, category="service", outcome="done"
                        )
                        self.log.event(
                            "job_completed",
                            job_id=job_id,
                            source=source,
                            seconds=round(elapsed, 6),
                        )
                    else:
                        # Lease lost mid-run: the reaper re-queued the job
                        # (and someone else may own it now).  The result is
                        # in the disk cache regardless, so nothing is lost.
                        async_end(
                            "service.job", job_id, category="service",
                            outcome="lease_lost",
                        )
                        self.log.event("job_lease_lost", job_id=job_id)
            elif deadline is not None and now > deadline:
                expired.append((job, future))
        if expired:
            progressed |= self._on_timeout(expired)
        return progressed

    def _on_timeout(self, expired: List[Tuple[Job, Future]]) -> bool:
        """Kill the pool (stuck workers), requeue bystanders, rebuild.

        Futures that finished between the caller's ``done()`` check and
        here are spared — if nothing is actually stuck the pool
        survives, and the completed futures are harvested next pass.
        """
        stuck = [(job, future) for job, future in expired if not future.done()]
        if not stuck:
            return False
        stuck_ids = {job.id for job, _ in stuck}
        self.stats.timeouts += len(stuck)
        self._kill_pool()
        for job, _future in stuck:
            del self._inflight[job.id]
            async_end("service.job", job.id, category="service", outcome="timeout")
            self.log.event("job_timeout", job_id=job.id)
            self.record_failure(job, "timeout: job exceeded its deadline")
        for other_id, (_job, future, _dl, _st, _rn) in list(self._inflight.items()):
            if future.done():
                continue  # finished before the kill: harvest next pass
            self.store.requeue(other_id, refund_attempt=True)
            del self._inflight[other_id]
        self._pool = self._new_pool()
        return True

    def _renew_leases(self) -> None:
        """Heartbeat in-flight jobs before their lease lapses."""
        now = time.time()
        for job_id, entry in list(self._inflight.items()):
            job, future, deadline, started, renew_at = entry
            if now < renew_at:
                continue
            ok = self.store.heartbeat(
                job_id, self.worker_id, self.lease_seconds, now=now
            )
            if not ok:
                self.log.event("job_lease_lost", job_id=job_id)
            self._inflight[job_id] = (
                job, future, deadline, started, now + self.lease_seconds / 2
            )

    def record_failure(
        self, job: Job, error: str, worker_id: Optional[str] = None
    ) -> bool:
        """Apply the retry rule to one failed attempt, local or remote.

        While attempts remain the job is re-queued with ``not_before =
        now + base * factor**(attempts-1)`` (capped at ``backoff_max``);
        on its last attempt it fails terminally.  The transition is
        owner-guarded on ``worker_id`` (default: this scheduler), so
        ``False`` means that worker no longer holds the job's lease.
        """
        worker_id = worker_id or self.worker_id
        delay = None
        if job.attempts < job.max_attempts:
            delay = min(
                self.backoff_base * self.backoff_factor ** (max(job.attempts, 1) - 1),
                self.backoff_max,
            )
        if not self.store.fail(job.id, error, retry_delay=delay, worker_id=worker_id):
            return False
        if delay is None:
            self.stats.failed += 1
            self.log.event(
                "job_failed", job_id=job.id, error=error, attempt=job.attempts,
                worker_id=worker_id,
            )
        else:
            self.stats.retried += 1
            self.log.event(
                "job_retried", job_id=job.id, error=error, attempt=job.attempts,
                retry_delay=delay, worker_id=worker_id,
            )
        return True

    # -- drain -----------------------------------------------------------

    def _drain(self) -> None:
        """Finish or re-queue in-flight work; leave no ``running`` rows."""
        deadline = time.time() + self.drain_seconds
        while self._inflight and time.time() < deadline:
            self._drop_wakeups()
            if not self._reap():
                self._idle()
        if self._inflight:
            self._kill_pool()
            for job_id in list(self._inflight):
                self.store.requeue(job_id, refund_attempt=True)
                self.stats.drain_requeued += 1
                async_end(
                    "service.job", job_id, category="service", outcome="drained"
                )
            self._inflight.clear()
        self.log.event("scheduler_drained", requeued=self.stats.drain_requeued)


__all__ = [
    "Scheduler",
    "ServiceStats",
    "TRACE_CONFIG_KEYS",
    "config_from_overrides",
    "job_config",
    "job_workload",
    "resolve_job_workload",
]

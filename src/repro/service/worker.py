"""The one worker loop: claim jobs, run them on a process pool, report back.

Every simulation the service runs goes through :class:`Worker`.  The
daemon's own pool is a ``Worker`` over
:class:`~repro.service.daemon.StoreSource` (its job store, in process);
``repro worker`` is a ``Worker`` over :class:`HttpSource` (a daemon's
HTTP worker routes, which call the same ``StoreSource``).  A job source
has five transitions, each returning ``False`` once this worker no
longer holds the job's lease (the loop then makes no further transition
for that job):

- ``claim(worker_id, lease_seconds)`` leases the best queued job,
- ``heartbeat(job, worker_id, lease_seconds)`` renews the lease,
- ``finish(job, worker_id, result, source)`` records a result,
- ``fail(job, worker_id, error, invalid=False)`` applies the retry rule,
- ``release(job, worker_id)`` re-queues a claim with its attempt refunded.

Claimed jobs run on one ``ProcessPoolExecutor`` built from
:func:`repro.sim.parallel.init_worker` and :func:`~repro.sim.parallel.run_job`.
Leases are renewed at half-life.  A job still running at ``claim time +
job.timeout`` is killed with the pool and failed as a timeout; running
bystanders are released.  The loop sleeps until :meth:`Worker.notify`
(a submission, a finished future, a stop), the next deadline or renewal,
or ``poll_interval``, whichever comes first.  On stop it drains for
``drain_seconds``, then kills the pool and releases the rest.  DESIGN.md
§8 and §13 give the rules and the reasons for each.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import socket
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.obs.logging import StructuredLog
from repro.obs.tracing import async_begin, async_end
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobstore import Job
from repro.sim import parallel, runner
from repro.traces.store import TraceStoreError, trace_store

#: The error a job past its deadline fails with, on every path.
TIMEOUT_ERROR = "timeout: job exceeded its deadline"


def default_worker_id() -> str:
    """``<hostname>:<pid>`` — unique enough per live worker process."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclasses.dataclass
class WorkerStats:
    """One ``repro worker`` process's counters (reported at exit and by tests)."""

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    invalid: int = 0
    lease_lost: int = 0
    upload_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class HttpSource:
    """The job source of ``repro worker``: a daemon's HTTP worker routes.

    A 404 or 409 answer to a job's request means the lease is lost.  Any
    other error (an unreachable or throttled daemon) is logged and
    treated as transient: a claim backs off for the daemon's
    ``Retry-After`` hint, a heartbeat is retried at the next renewal,
    and a result or failure that cannot be delivered is left to the
    daemon's lease reaper.  A claim the daemon refuses because this
    worker runs other code (409) is logged the same way and leases
    nothing.
    """

    def __init__(self, client: ServiceClient, log: Optional[StructuredLog] = None) -> None:
        self.client = client
        self.log = log or StructuredLog()
        self.stats = WorkerStats()
        #: monotonic time before which claims are skipped (HTTP 429 backoff)
        self._claim_after = 0.0

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Job]:
        if time.monotonic() < self._claim_after:
            return None
        try:
            payload = self.client.claim(worker_id, lease_seconds)
        except ServiceError as exc:
            self.log.event("worker_claim_error", worker_id=worker_id, error=str(exc))
            self._claim_after = time.monotonic() + min(exc.retry_after or 0.0, 5.0)
            return None
        if payload is None:
            return None
        self.stats.claimed += 1
        return Job(**payload)

    def heartbeat(self, job: Job, worker_id: str, lease_seconds: float) -> bool:
        return self._send(job, worker_id, self.client.heartbeat, lease_seconds) is not False

    def finish(self, job: Job, worker_id: str, result, source: str) -> bool:
        # Unlike the daemon's own pool, this host's disk cache is not the
        # daemon's: the result travels with the transition.
        sent = self._send(job, worker_id, self.client.upload_result, result, source)
        if sent is None:
            self.stats.upload_errors += 1
        elif sent:
            self.stats.completed += 1
            self.log.event(
                "worker_job_completed", worker_id=worker_id, job_id=job.id, source=source
            )
        return bool(sent)

    def fail(self, job: Job, worker_id: str, error: str, invalid: bool = False) -> bool:
        # A job this host cannot resolve (e.g. a trace it never ingested)
        # may still run elsewhere, so it goes through the daemon's retry
        # rule like any other failure instead of failing terminally.
        self.stats.failed += 1
        if invalid:
            self.stats.invalid += 1
        self.log.event("worker_job_failed", worker_id=worker_id, job_id=job.id, error=error)
        return bool(self._send(job, worker_id, self.client.fail_job, error))

    def release(self, job: Job, worker_id: str) -> bool:
        return bool(self._send(job, worker_id, self.client.release))

    def _send(self, job: Job, worker_id: str, request, *args) -> Optional[bool]:
        """``True`` delivered, ``False`` lease lost, ``None`` daemon unreachable."""
        try:
            request(job.id, worker_id, *args)
        except ServiceError as exc:
            if exc.status in (404, 409):
                self.stats.lease_lost += 1
                self.log.event("worker_lease_lost", worker_id=worker_id, job_id=job.id)
                return False
            self.log.event(
                "worker_request_error", worker_id=worker_id, job_id=job.id,
                request=request.__name__, error=str(exc),
            )
            return None
        return True


@dataclasses.dataclass(eq=False)
class _Running:
    """One claimed job on the pool (monotonic times)."""

    job: Job
    future: Future
    deadline: Optional[float]
    #: next lease renewal; ``None`` once the lease is lost
    renew_at: Optional[float]


class Worker:
    """Drains a job source through one local process pool until stopped."""

    def __init__(
        self,
        source,
        worker_id: Optional[str] = None,
        concurrency: int = 1,
        lease_seconds: float = 15.0,
        poll_interval: float = 0.5,
        drain_seconds: float = 30.0,
        cache_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
        max_jobs: Optional[int] = None,
        log: Optional[StructuredLog] = None,
    ) -> None:
        self.source = source
        self.worker_id = worker_id or default_worker_id()
        self.concurrency = max(1, concurrency)
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.drain_seconds = drain_seconds
        if cache_dir is None and runner.disk_cache() is not None:
            cache_dir = str(runner.disk_cache().root)
        self.cache_dir = cache_dir
        self.trace_dir = trace_dir or str(trace_store().root)
        #: stop after recording this many finished or failed jobs (None = forever)
        self.max_jobs = max_jobs
        self.log = log or StructuredLog()
        self._stop = False
        self._settled = 0
        #: pending wake-ups (see :meth:`notify`).  Not a
        #: ``threading.Event``: ``request_stop`` runs in signal handlers
        #: on the loop's own thread, and a handler that sets an Event
        #: while that thread holds the Event's lock deadlocks;
        #: ``SimpleQueue.put`` is reentrant.
        self._wakeups: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, _Running] = {}
        #: what the pool process that ran the last harvested job held
        #: after it: its workload stores' ``(workloads, entries)`` and its
        #: peak RSS in MB (``/metrics`` reads them)
        self.pool_data_held: Tuple[int, int] = (0, 0)
        self.pool_rss_mb = 0.0

    # -- control ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the loop to drain and exit (signal-handler safe)."""
        self._stop = True
        self.notify()

    def notify(self) -> None:
        """Wake the loop now: a job was queued or one finished.

        Safe from any thread and from signal handlers.  One pass serves
        any number of wake-ups, so at most one is kept pending.
        """
        if self._wakeups.empty():
            self._wakeups.put(None)

    @property
    def stopping(self) -> bool:
        return self._stop

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def stats(self):
        """The source's counters (``ServiceStats`` or :class:`WorkerStats`)."""
        return self.source.stats

    # -- main loop -------------------------------------------------------

    def run(self):
        """Block, executing jobs until stopped; then drain.  Returns :attr:`stats`."""
        self.log.event(
            "worker_started",
            worker_id=self.worker_id,
            concurrency=self.concurrency,
            lease_seconds=self.lease_seconds,
        )
        self._pool = self._new_pool()
        try:
            while True:
                # Drop wake-ups before the pass, never after it, and test
                # _stop after the drop (request_stop sets it first): a
                # wake-up that lands mid-pass stays pending and ends the
                # idle sleep below at once.
                self._drop_wakeups()
                if self._stop or self._done_enough():
                    break
                progressed = self._harvest()
                progressed |= self._claim()
                self._renew()
                if not progressed:
                    self._idle()
            self._drain()
        finally:
            if self._pool is not None and self._inflight:
                self._kill_pool()  # the loop itself failed: leave nothing running
            elif self._pool is not None:
                self._pool.shutdown(wait=True)
            self.log.event(
                "worker_stopped", worker_id=self.worker_id, **self.stats.as_dict()
            )
        return self.stats

    def _done_enough(self) -> bool:
        return self.max_jobs is not None and self._settled >= self.max_jobs

    def _drop_wakeups(self) -> None:
        while not self._wakeups.empty():  # the loop is the only consumer
            self._wakeups.get_nowait()

    def _idle(self, until: float = float("inf")) -> None:
        """Sleep until a wake-up, a deadline or a renewal is due.

        At most ``poll_interval``, and never past ``until``.
        """
        wake = [time.monotonic() + self.poll_interval, until]
        for entry in self._inflight.values():
            wake.extend(t for t in (entry.deadline, entry.renew_at) if t is not None)
        try:
            self._wakeups.get(timeout=max(min(wake) - time.monotonic(), 0.0))
        except queue.Empty:
            pass

    # -- pool ------------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.concurrency,
            initializer=parallel.init_worker,
            initargs=(self.cache_dir, self.trace_dir),
        )

    def _kill_pool(self) -> None:
        """Terminate the pool processes (the only way to stop a stuck job)."""
        for process in list(self._pool._processes.values()):
            process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    # -- one pass --------------------------------------------------------

    def _claim(self) -> bool:
        """Claim and submit jobs until the pool is full or none is left."""
        claimed = False
        while len(self._inflight) < self.concurrency:
            job = self.source.claim(self.worker_id, self.lease_seconds)
            if job is None:
                break
            claimed = True
            try:
                workload, config = runner.resolve_run(job.workload, job.config)
            except (KeyError, ValueError, TraceStoreError) as exc:
                error = f"cannot resolve job: {exc}"
                self._settled += self.source.fail(job, self.worker_id, error, invalid=True)
                continue
            future = self._pool.submit(parallel.run_job, (workload, job.design, config))
            # runs on the executor's thread: it only wakes the loop, which
            # harvests the future itself
            future.add_done_callback(lambda _future: self.notify())
            now = time.monotonic()
            self._inflight[job.id] = _Running(
                job,
                future,
                deadline=now + job.timeout if job.timeout else None,
                renew_at=now + self.lease_seconds / 2,
            )
            async_begin(
                "service.job", job.id, category="service",
                workload=job.workload, design=job.design,
            )
            self.log.event(
                "job_dispatched",
                job_id=job.id,
                workload=job.workload,
                design=job.design,
                attempt=job.attempts,
                worker_id=self.worker_id,
            )
        return claimed

    def _harvest(self) -> bool:
        """Settle finished futures, then time out jobs past their deadline.

        A finished run is counted in this process's ``runner.stats``
        (``/metrics`` reads them): the pool process counted it only in
        its own.  What that pool process holds after the run, its
        workload stores and peak RSS, is kept as :attr:`pool_data_held`
        and :attr:`pool_rss_mb`.  *Every* expired job is collected per
        pass, and expiry is only declared after a final
        :meth:`Future.done` check in :meth:`_on_timeout`.
        """
        progressed = False
        now = time.monotonic()
        expired: List[_Running] = []
        for entry in list(self._inflight.values()):
            if entry.future.done():
                try:
                    result, source, seconds, held, rss_mb = entry.future.result()
                except Exception as exc:  # noqa: BLE001 — worker error is data
                    error = f"{type(exc).__name__}: {exc}"
                    self._settled += self._leave(entry, "failed", self.source.fail, error)
                else:
                    runner.stats.add(source, seconds)
                    self.pool_data_held, self.pool_rss_mb = held, rss_mb
                    self._settled += self._leave(
                        entry, "done", self.source.finish, result, source
                    )
                progressed = True
            elif entry.deadline is not None and now > entry.deadline:
                expired.append(entry)
        if expired:
            progressed |= self._on_timeout(expired)
        return progressed

    def _leave(self, entry: _Running, outcome: str, transition, *args) -> bool:
        """Take ``entry`` off the pool through one source ``transition``.

        A lost lease makes no transition: the job is someone else's now,
        and a finished result is in this host's disk cache regardless.
        Returns whether the transition was made.
        """
        del self._inflight[entry.job.id]
        made = entry.renew_at is not None and transition(entry.job, self.worker_id, *args)
        async_end(
            "service.job", entry.job.id, category="service",
            outcome=outcome if made else "lease_lost",
        )
        return made

    def _on_timeout(self, expired: List[_Running]) -> bool:
        """Kill the pool, fail the stuck jobs, release bystanders, rebuild.

        Futures that finished since the caller's ``done()`` check are
        spared: if nothing is actually stuck the pool survives, and
        finished futures are harvested on the next pass.  Every future is
        judged before the kill, because afterwards each unfinished one
        fails with ``BrokenProcessPool``.
        """
        running = [entry for entry in self._inflight.values() if not entry.future.done()]
        stuck = [entry for entry in running if entry in expired]
        if not stuck:
            return False
        self._kill_pool()
        for entry in running:
            if entry in stuck:
                self._settled += self._leave(entry, "timeout", self.source.fail, TIMEOUT_ERROR)
            else:
                self._leave(entry, "released", self.source.release)
        self._pool = self._new_pool()
        return True

    def _renew(self) -> None:
        """Heartbeat every held lease that is due for renewal."""
        now = time.monotonic()
        for entry in self._inflight.values():
            if entry.renew_at is None or now < entry.renew_at:
                continue
            if self.source.heartbeat(entry.job, self.worker_id, self.lease_seconds):
                entry.renew_at = now + self.lease_seconds / 2
            else:
                entry.renew_at = None

    # -- drain -----------------------------------------------------------

    def _drain(self) -> None:
        """Finish in-flight jobs, then release the rest: no ``running`` rows."""
        until = time.monotonic() + self.drain_seconds
        while self._inflight and time.monotonic() < until:
            self._drop_wakeups()
            progressed = self._harvest()
            self._renew()
            if not progressed:
                self._idle(until)
        if self._inflight:
            self._kill_pool()
            for entry in list(self._inflight.values()):
                self._leave(entry, "drained", self.source.release)


__all__ = [
    "HttpSource",
    "TIMEOUT_ERROR",
    "Worker",
    "WorkerStats",
    "default_worker_id",
]

"""One service process: job store, its worker, and the HTTP front end.

:class:`ServiceDaemon` owns the durable pieces (SQLite job store, the
shared content-addressed disk cache) and the runtime pieces (its own
:class:`~repro.service.worker.Worker` pool, threaded HTTP server, lease
reaper, telemetry registry).  The CLI's ``repro serve`` builds one and
blocks in :meth:`run`; tests embed one in-process via :meth:`start` /
:meth:`stop`.

:class:`StoreSource` is the job source over the store: the daemon's own
worker and the HTTP worker routes (``claim_job``, ``heartbeat_job``,
``remote_result``, ``remote_fail``, ``release_job``) make every job
transition through it, so each transition's store write, counters, log
events and the retry rule are defined once.

Submission — shared by the HTTP handler and any in-process caller —
deduplicates twice:

1. a result for the job's identity already in the disk cache completes
   the job instantly (``source="cache"``), and
2. an identical job already queued or running is joined instead of
   duplicated (``created=False`` in the response).

Telemetry registers under ``service.*`` (plus the runner's ``runner.*``
counters) in one :class:`~repro.telemetry.StatRegistry`, surfaced as
JSON by ``GET /metrics``.
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
import time
from typing import Annotated, Any, Dict, List, Optional, Tuple

from repro.obs.logging import StructuredLog
from repro.service import jobstore
from repro.service.client import SERVICE_TOKEN_ENV
from repro.service.jobstore import Job, JobStore
from repro.service.worker import TIMEOUT_ERROR, Worker
from repro.sim import runner
from repro.sim.diskcache import DiskCache, cache_key, code_digest
from repro.sim.results import ResultDecodeError, SimResult
from repro.sim.system import DESIGNS
from repro.telemetry import StatRegistry, StatScope
from repro.traces.formats import TraceParseError
from repro.traces.store import TraceStore, TraceStoreError, trace_store
from repro.util.schema import Checked, Rule, check_field, load

class SubmitError(ValueError):
    """A job submission that can never run (bad workload/design/config)."""


class QueueFullError(SubmitError):
    """The bounded job queue is at capacity (backpressure: retry later)."""


class IngestError(ValueError):
    """A trace upload that cannot be stored (bad payload/format)."""


class WorkerProtocolError(ValueError):
    """A malformed claim/heartbeat/result/fail/release request from a worker."""


class LeaseLostError(RuntimeError):
    """The caller no longer holds the job's lease (reaped, re-owned, or
    its attempt failed because its result came from other code)."""


class ForeignCodeError(RuntimeError):
    """A worker claimed a job while running other code than the daemon."""


#: Queue-depth histogram bounds (jobs waiting at submission time).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: A failed attempt's retry delay grows by this factor per attempt from
#: ``StoreSource.backoff_base``, capped at ``BACKOFF_MAX_S`` seconds.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 60.0


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
    #: unfinished claims handed back with the attempt refunded (a drain,
    #: or the bystanders of a timed-out job's pool kill)
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
            "job_seconds", doc="claim-to-completion wall time of finished attempts"
        )
        self.queue_depth_samples = scope.histogram(
            "queue_depth_samples",
            buckets=QUEUE_DEPTH_BUCKETS,
            doc="queue depth observed at each submission",
        )
        self.http_request_seconds = scope.histogram(
            "http_request_seconds", doc="HTTP request handling duration"
        )


class StoreSource:
    """The job source over the :class:`JobStore`, for every worker.

    The daemon's own :class:`~repro.service.worker.Worker` calls it
    directly; remote workers reach it through the HTTP worker routes.
    Every transition is owner-guarded on ``worker_id`` and returns
    ``False`` when that worker no longer holds the job's lease.
    """

    def __init__(
        self,
        store: JobStore,
        stats: Optional[ServiceStats] = None,
        log: Optional[StructuredLog] = None,
        backoff_base: float = 0.5,
    ) -> None:
        self.store = store
        self.stats = stats or ServiceStats()
        self.log = log or StructuredLog()
        self.backoff_base = backoff_base

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Job]:
        job = self.store.claim(worker_id=worker_id, lease_seconds=lease_seconds)
        if job is not None:
            self.log.event(
                "job_claimed", job_id=job.id, worker_id=worker_id,
                lease_seconds=lease_seconds,
            )
        return job

    def heartbeat(self, job: Job, worker_id: str, lease_seconds: float) -> bool:
        """Renew the lease; also refused once the job is past its deadline."""
        if self.store.heartbeat(job.id, worker_id, lease_seconds):
            return True
        return self._lost(job, worker_id)

    def finish(self, job: Job, worker_id: str, result, source: str) -> bool:
        # ``result`` is already in the daemon's cache: the local pool wrote
        # it through the shared disk cache, and the HTTP route stores an
        # upload before calling this.
        if not self.store.finish(job.id, source, worker_id=worker_id):
            return self._lost(job, worker_id)
        self.stats.completed += 1
        self.log.event(
            "job_completed", job_id=job.id, source=source, worker_id=worker_id,
            seconds=self._observe(job),
        )
        return True

    def fail(self, job: Job, worker_id: str, error: str, invalid: bool = False) -> bool:
        """Apply the retry rule to one failed attempt.

        While attempts remain the job is re-queued with ``not_before =
        now + base * BACKOFF_FACTOR**(attempts-1)`` (capped at ``BACKOFF_MAX_S``);
        on its last attempt it fails terminally.  An ``invalid`` job (one
        the daemon's worker cannot resolve) fails terminally at once: it
        was validated against this process's roster and trace store at
        submission, so no retry here can succeed.
        """
        delay = None
        if not invalid and job.attempts < job.max_attempts:
            delay = min(
                self.backoff_base * BACKOFF_FACTOR ** (max(job.attempts, 1) - 1),
                BACKOFF_MAX_S,
            )
        if not self.store.fail(job.id, error, retry_delay=delay, worker_id=worker_id):
            return self._lost(job, worker_id)
        self._observe(job)
        if error == TIMEOUT_ERROR:
            self.stats.timeouts += 1
            self.log.event("job_timeout", job_id=job.id, worker_id=worker_id)
        if delay is None:
            self.stats.failed += 1
        else:
            self.stats.retried += 1
        self.log.event(
            "job_failed" if delay is None else "job_retried", job_id=job.id,
            error=error, attempt=job.attempts, retry_delay=delay, worker_id=worker_id,
        )
        return True

    def release(self, job: Job, worker_id: str) -> bool:
        """Re-queue an unfinished claim with its attempt refunded."""
        if not self.store.requeue(job.id, worker_id=worker_id):
            return self._lost(job, worker_id)
        self.stats.drain_requeued += 1
        self.log.event("job_released", job_id=job.id, worker_id=worker_id)
        return True

    def _lost(self, job: Job, worker_id: str) -> bool:
        self.log.event("job_lease_lost", job_id=job.id, worker_id=worker_id)
        return False

    def _observe(self, job: Job) -> Optional[float]:
        """Record the attempt's claim-to-now wall time; returns it."""
        if job.started_at is None:
            return None
        seconds = max(time.time() - job.started_at, 0.0)
        if self.stats.job_seconds is not None:
            self.stats.job_seconds.observe(seconds)
        return round(seconds, 6)


def _worker_path_segment(worker_id: str) -> str:
    """A registry-legal path segment for one worker id."""
    segment = re.sub(r"[^a-z0-9_]", "_", worker_id.lower())
    return segment or "unknown"


class WorkerTracker:
    """Live-worker accounting behind the ``worker.*`` telemetry scope.

    Every claim/heartbeat/result touch marks the worker as seen; a
    worker is "live" while its last touch is younger than
    ``live_horizon`` (three lease intervals by default — long enough to
    ride out a missed heartbeat, short enough that a dead worker drops
    off the gauge promptly).
    """

    def __init__(self, live_horizon: float = 90.0) -> None:
        self.live_horizon = live_horizon
        self._lock = threading.Lock()
        self._last_seen: Dict[str, float] = {}
        self._completed: Dict[str, int] = {}
        self.lease_expirations = 0
        self._scope: Optional[StatScope] = None

    def register_stats(self, scope: StatScope) -> None:
        self._scope = scope
        scope.gauge("live", self.live, doc="workers seen within the horizon")
        scope.counter(
            "lease_expirations",
            lambda: self.lease_expirations,
            doc="claims re-queued because their lease lapsed",
        )

    def seen(self, worker_id: str, now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with self._lock:
            self._last_seen[worker_id] = now

    def completed(self, worker_id: str) -> None:
        self.seen(worker_id)
        with self._lock:
            register = worker_id not in self._completed and self._scope is not None
            self._completed[worker_id] = self._completed.get(worker_id, 0) + 1
        if register:
            # First completion: surface a per-worker counter on /metrics.
            self._scope.counter(
                f"completed.{_worker_path_segment(worker_id)}",
                (lambda w=worker_id: self._completed.get(w, 0)),
                doc=f"jobs completed by worker {worker_id}",
            )

    def lease_expired(self, worker_id: Optional[str]) -> None:
        self.lease_expirations += 1
        if worker_id:
            with self._lock:
                # an expired lease is *evidence of absence*: forget the
                # worker so the live gauge drops without waiting out the
                # horizon
                self._last_seen.pop(worker_id, None)

    def live(self, now: Optional[float] = None) -> int:
        now = time.time() if now is None else now
        horizon = now - self.live_horizon
        with self._lock:
            return sum(1 for seen in self._last_seen.values() if seen >= horizon)

    def completions(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._completed)


class TokenBucketLimiter:
    """Per-client token buckets: ``rate`` requests/second, ``burst`` deep.

    ``allow`` returns ``(ok, retry_after_seconds)``; a rate of 0
    disables limiting entirely.
    """

    def __init__(self, rate: float, burst: Optional[float] = None) -> None:
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(2 * self.rate, 1.0)
        self._lock = threading.Lock()
        #: client -> (tokens, last refill time)
        self._buckets: Dict[str, Tuple[float, float]] = {}

    def allow(self, client: str, now: Optional[float] = None) -> Tuple[bool, float]:
        if self.rate <= 0:
            return True, 0.0
        now = time.monotonic() if now is None else now
        with self._lock:
            tokens, last = self._buckets.get(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                self._buckets[client] = (tokens - 1.0, now)
                return True, 0.0
            self._buckets[client] = (tokens, now)
            return False, (1.0 - tokens) / self.rate


# The JSON bodies the daemon reads, each loaded by ``schema.load``: an
# undeclared key, or a value of another type or range, answers 400
# naming the field, and a null or absent optional field takes the
# daemon's value.  Numbers stay below 2**63, the job store's signed
# 64-bit INTEGER bound, which rules out nan and inf too.


@dataclasses.dataclass(frozen=True)
class JobRequest(Checked):
    """``POST /jobs``; a ``timeout`` of 0 is none."""

    workload: str
    design: Annotated[str, Rule(choices=DESIGNS)]
    config: Optional[dict] = None
    priority: Optional[Annotated[int, Rule(least=-2**63, below=2**63)]] = None
    max_attempts: Optional[Annotated[int, Rule(least=1, below=2**63)]] = None
    timeout: Optional[Annotated[float, Rule(least=0, below=2**63)]] = None


#: A lease must lapse: one of inf would keep a hung job from the reaper
#: past its deadline, for good.
Lease = Optional[Annotated[float, Rule(over=0, below=2**63)]]


@dataclasses.dataclass(frozen=True)
class WorkerRequest(Checked):
    """``POST /jobs/<id>/release``; each other worker route's body adds
    its fields, ``code`` being the worker's code digest."""

    worker_id: Annotated[str, Rule(least=1)]


@dataclasses.dataclass(frozen=True)
class Claim(WorkerRequest):
    code: str
    lease_seconds: Lease = None


@dataclasses.dataclass(frozen=True)
class Heartbeat(WorkerRequest):
    lease_seconds: Lease = None


@dataclasses.dataclass(frozen=True)
class Upload(WorkerRequest):
    code: str
    result: dict  # a SimResult.to_json_dict()
    source: str = "remote"


@dataclasses.dataclass(frozen=True)
class Failure(WorkerRequest):
    error: str = "worker reported failure"


@dataclasses.dataclass(frozen=True)
class TraceUpload(Checked):
    """``POST /traces``: exactly one of ``content`` and ``content_b64``."""

    content: Optional[str] = None
    content_b64: Optional[str] = None
    name: str = ""
    format: str = "auto"
    mode: str = "strict"


class ServiceDaemon:
    """Everything one ``repro serve`` process runs."""

    def __init__(
        self,
        db_path=None,
        cache_dir=None,
        trace_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        default_timeout: Optional[float] = None,
        max_attempts: int = 3,
        drain_seconds: float = 30.0,
        backoff_base: float = 0.5,
        log_stream=None,
        token: Optional[str] = None,
        lease_seconds: float = 30.0,
        reaper_interval: float = 1.0,
        max_queued: int = 10_000,
        rate_limit: float = 0.0,
        rate_burst: Optional[float] = None,
    ) -> None:
        # the defaults take the bounds of the request fields they stand for;
        # a request's null means "the daemon's value", so only the timeout,
        # whose null is "none", may be null here
        check_field(JobRequest, "max_attempts", max_attempts, required=True)
        check_field(JobRequest, "timeout", default_timeout)
        check_field(Heartbeat, "lease_seconds", lease_seconds, required=True)
        self.max_attempts = max_attempts
        #: the timeout written onto every submission that names none
        self.default_timeout = default_timeout
        self.store = JobStore(db_path)
        if cache_dir is not None:
            self.cache = DiskCache(cache_dir)
        else:
            self.cache = runner.disk_cache() or DiskCache()
        # the trace store is process-global (replay resolves through the
        # singleton), so an explicit trace_dir reconfigures it for the
        # whole daemon process
        if trace_dir is not None:
            from repro.traces.store import configure_trace_store

            self.traces: TraceStore = configure_trace_store(trace_dir)
        else:
            self.traces = trace_store()
        self.stats = ServiceStats()
        self.started_at = time.time()
        #: shared bearer token guarding mutating routes (None = open)
        self.token = (
            token if token is not None else os.environ.get(SERVICE_TOKEN_ENV) or None
        )
        self.lease_seconds = lease_seconds
        self.reaper_interval = reaper_interval
        #: queued-row ceiling for backpressure (0 = unbounded)
        self.max_queued = max_queued
        self.limiter = TokenBucketLimiter(rate_limit, rate_burst)
        self.workers_seen = WorkerTracker(live_horizon=3 * lease_seconds)
        self._reaper_thread: Optional[threading.Thread] = None
        self._reaper_stop = threading.Event()
        #: structured JSON event log (``log_stream=None`` keeps it off,
        #: the default for embedded/test daemons; ``repro serve`` passes
        #: stderr)
        self.log = StructuredLog(log_stream)
        self.source = StoreSource(
            self.store, stats=self.stats, log=self.log, backoff_base=backoff_base
        )
        #: the daemon's own pool: one worker among many, over the store
        self.worker = Worker(
            self.source,
            worker_id=f"local:{os.getpid()}",
            concurrency=workers,
            lease_seconds=lease_seconds,
            poll_interval=0.05,
            drain_seconds=drain_seconds,
            cache_dir=str(self.cache.root),
            trace_dir=str(self.traces.root),
            log=self.log,
        )
        self.registry = StatRegistry()
        service_scope = self.registry.scope("service")
        self.stats.register_stats(service_scope, self.store)
        self.workers_seen.register_stats(self.registry.scope("worker"))
        service_scope.gauge(
            "uptime_seconds",
            lambda: round(time.time() - self.started_at, 3),
            doc="seconds since this daemon process started",
        )
        runner.register_stats(self.registry.scope("runner"))
        self._register_pool_stats()
        self.traces.stats.register_stats(self.registry.scope("trace"))
        # The HTTP server imports are local so the daemon object stays
        # usable in contexts that never open a socket (unit tests).
        from repro.service.api import make_server

        self.server = make_server(self, host, port)
        self._http_thread: Optional[threading.Thread] = None
        self._worker_thread: Optional[threading.Thread] = None

    def _register_pool_stats(self) -> None:
        """Gauges of what the pool process of the last harvested job holds.

        The workload stores live in the pool processes, so the daemon
        reports what its :class:`Worker` last carried home from one.
        """
        worker = self.worker
        data = self.registry.scope("runner").scope("data")
        data.gauge(
            "workloads",
            lambda: worker.pool_data_held[0],
            doc="workload stores a pool process retained after its last job",
        )
        data.gauge(
            "entries",
            lambda: worker.pool_data_held[1],
            doc="entries (rendered lines, payloads, sizes, trace records) "
                "those stores hold",
        )
        self.registry.scope("worker").gauge(
            "pool_rss_mb",
            lambda: round(worker.pool_rss_mb, 3),
            doc="peak RSS of the pool process of the last harvested job, MB",
        )

    # -- addresses -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- submission (shared by HTTP and in-process callers) --------------

    def submit(self, payload: Dict[str, Any]) -> Tuple[Job, bool]:
        """Validate and enqueue one job; returns ``(job, created)``.

        Raises :class:`SubmitError` on an identity that can never
        simulate (unknown workload/design, bad config override).
        """
        try:
            request = load(JobRequest, payload)
            config_overrides = request.config or {}
            workload, config = runner.resolve_run(request.workload, config_overrides)
        except (KeyError, ValueError, TraceStoreError) as exc:
            raise SubmitError(str(exc)) from None
        workload_name, design = request.workload, request.design
        priority = request.priority or 0
        max_attempts = request.max_attempts or self.max_attempts
        timeout = self.default_timeout if request.timeout is None else request.timeout
        if workload_name.startswith("trace:"):
            # canonicalize abbreviated hashes so the stored row stays
            # resolvable even if a later ingest makes the prefix ambiguous
            workload_name = f"trace:{workload.trace_hash}"
        key = cache_key(workload, design, config)
        if self.stats.queue_depth_samples is not None:
            self.stats.queue_depth_samples.observe(
                self.store.counts()[jobstore.QUEUED]
            )

        if self.cache.get(key) is not None:
            # Identity already solved: record an instantly-done job.
            job, created = self.store.submit(
                workload_name,
                design,
                key,
                config=config_overrides,
                priority=priority,
                max_attempts=max_attempts,
                timeout=timeout,
                state=jobstore.DONE,
                source="cache",
            )
            self.stats.dedup_cache += 1
            return job, created
        if self.max_queued and self.store.active_for_key(key) is None:
            # Backpressure: only genuinely-new rows count against the
            # bound — joining an active twin adds no queue depth.
            depth = self.store.counts()[jobstore.QUEUED]
            if depth >= self.max_queued:
                raise QueueFullError(
                    f"job queue is full ({depth} >= {self.max_queued} queued); "
                    f"retry later"
                )
        job, created = self.store.submit(
            workload_name,
            design,
            key,
            config=config_overrides,
            priority=priority,
            max_attempts=max_attempts,
            timeout=timeout,
        )
        if created:
            self.worker.notify()
            self.stats.submitted += 1
            self.log.event(
                "job_submitted",
                job_id=job.id,
                workload=workload_name,
                design=design,
                priority=priority,
            )
        else:
            self.stats.dedup_active += 1
        return job, created

    # -- trace ingestion --------------------------------------------------

    def ingest_trace(self, payload: Dict[str, Any]):
        """Store one uploaded trace; returns ``(info, created)``.

        The payload carries the trace either as ``content`` (text
        records, convenient for hand-written uploads) or ``content_b64``
        (base64 of text/binary/gzip bytes), plus optional ``name``,
        ``format`` (``auto``/``text``/``binary``) and ``mode``
        (``strict``/``lenient``).  Raises :class:`IngestError` on a
        payload that cannot be parsed or stored.
        """
        try:
            upload = load(TraceUpload, payload)
        except ValueError as exc:
            raise IngestError(str(exc)) from None
        if (upload.content is None) == (upload.content_b64 is None):
            raise IngestError("provide exactly one of 'content' or 'content_b64'")
        if upload.content is not None:
            data = upload.content.encode("utf-8")
        else:
            import base64

            try:
                data = base64.b64decode(upload.content_b64, validate=True)
            except ValueError as exc:  # binascii.Error is one
                raise IngestError(f"bad content_b64: {exc}") from None
        try:
            info, created = self.traces.ingest_bytes(
                data, name=upload.name, fmt=upload.format, mode=upload.mode
            )
        except (TraceParseError, TraceStoreError, ValueError) as exc:
            raise IngestError(str(exc)) from None
        self.log.event(
            "trace_ingested",
            hash=info.hash,
            name=info.name,
            records=info.records,
            created=created,
        )
        return info, created

    def result_for(self, job: Job) -> Optional[SimResult]:
        """The completed job's :class:`SimResult` from the shared cache."""
        return self.cache.get(job.key)

    # -- HTTP worker routes (claim / heartbeat / result / fail / release) -

    def _worker_request(self, kind: type, payload: Any):
        """The worker request ``payload`` as a ``kind``; marks its worker seen."""
        try:
            request = load(kind, payload)
        except ValueError as exc:
            raise WorkerProtocolError(str(exc)) from None
        self.workers_seen.seen(request.worker_id)
        return request

    def claim_job(self, payload: Dict[str, Any]) -> Optional[Job]:
        """Lease the best queued job to a remote worker (``None`` = empty).

        The claim names the worker's :func:`~repro.sim.diskcache.code_digest`.
        A worker running other code leases nothing, so it spends no
        simulation and no job attempt: its results could never be cached
        under this daemon's keys.
        """
        request = self._worker_request(Claim, payload)
        if request.code != code_digest():
            raise ForeignCodeError(
                f"worker {request.worker_id!r} runs {request.code}, the daemon runs "
                f"{code_digest()}; no job leased"
            )
        return self.source.claim(request.worker_id, request.lease_seconds or self.lease_seconds)

    def heartbeat_job(self, job_id: str, payload: Dict[str, Any]) -> Job:
        """Renew a worker's lease; raises :class:`LeaseLostError` if gone.

        The lease is also refused once the job is past its timeout (see
        :meth:`JobStore.heartbeat`); the worker kills the attempt at its
        deadline, or the reaper takes the job back when the lease lapses.
        """
        request = self._worker_request(Heartbeat, payload)
        worker_id = request.worker_id
        job = self.store.find(job_id)  # KeyError -> 404 at the API layer
        if not self.source.heartbeat(job, worker_id, request.lease_seconds or self.lease_seconds):
            current = self.store.get(job.id)
            if current.state == jobstore.RUNNING and current.worker_id == worker_id:
                # still this worker's, so the store refused on the deadline
                raise LeaseLostError(
                    f"job {job.id} is past its {current.timeout:g} s timeout; "
                    f"lease not renewed"
                )
            raise LeaseLostError(
                f"job {job.id} is not leased to worker {worker_id!r} "
                f"(state {current.state})"
            )
        return self.store.get(job.id)

    def remote_result(self, job_id: str, payload: Dict[str, Any]) -> Job:
        """Adopt a worker's finished result: cache it, mark the job done.

        The payload carries the :meth:`SimResult.to_json_dict` dict and
        the worker's :func:`~repro.sim.diskcache.code_digest`; the daemon
        writes the result through its content-addressed cache under the
        job's key, so results replicate to the shared store exactly as
        if the local pool had produced them.  The key names this
        daemon's code, so a result from other code is never cached: the
        attempt fails under the retry rule and the worker is told its
        lease is gone.
        """
        request = self._worker_request(Upload, payload)
        worker_id = request.worker_id
        job = self.store.find(job_id)
        try:
            result = SimResult.from_json_dict(request.result)
        except ResultDecodeError as exc:
            raise WorkerProtocolError(f"undecodable result payload: {exc}") from None
        if result.design != job.design:
            raise WorkerProtocolError(
                f"result is for design {result.design!r}, job wants {job.design!r}"
            )
        if request.code != code_digest():
            error = (
                f"result from other code: worker {worker_id!r} runs {request.code}, "
                f"the daemon runs {code_digest()}"
            )
            if not self.source.fail(job, worker_id, error):
                raise LeaseLostError(f"job {job.id} is no longer leased to worker {worker_id!r}")
            raise LeaseLostError(f"job {job.id}: {error}; attempt failed, result not cached")
        # Persist before the state flip so a GET /jobs/<id>/result that
        # races the transition never sees done-without-result.
        self.cache.put(job.key, result)
        if not self.source.finish(job, worker_id, result, request.source):
            raise LeaseLostError(
                f"job {job.id} is no longer leased to worker {worker_id!r}; "
                f"result cached but job state unchanged"
            )
        self.workers_seen.completed(worker_id)
        return self.store.get(job.id)

    def remote_fail(self, job_id: str, payload: Dict[str, Any]) -> Job:
        """Record a worker-side failure under the retry rule."""
        request = self._worker_request(Failure, payload)
        worker_id = request.worker_id
        job = self.store.find(job_id)
        if not self.source.fail(job, worker_id, request.error):
            raise LeaseLostError(f"job {job.id} is no longer leased to worker {worker_id!r}")
        return self.store.get(job.id)

    def release_job(self, job_id: str, payload: Dict[str, Any]) -> Job:
        """Re-queue a worker's unfinished claim, attempt refunded."""
        worker_id = self._worker_request(WorkerRequest, payload).worker_id
        job = self.store.find(job_id)
        if not self.source.release(job, worker_id):
            raise LeaseLostError(f"job {job.id} is no longer leased to worker {worker_id!r}")
        return self.store.get(job.id)

    # -- lease reaper ----------------------------------------------------

    def reap_leases(self) -> List[Job]:
        """One reaper pass: requeue/fail every job whose lease lapsed."""
        reaped = self.store.reap_expired()
        for job in reaped:
            self.workers_seen.lease_expired(job.worker_id)
            self.log.event(
                "lease_expired",
                job_id=job.id,
                worker_id=job.worker_id,
                attempt=job.attempts,
            )
        return reaped

    def _reaper_loop(self) -> None:
        while not self._reaper_stop.wait(self.reaper_interval):
            try:
                self.reap_leases()
            except Exception:  # noqa: BLE001 — never kill the reaper thread
                pass

    def _start_reaper(self) -> None:
        self._reaper_stop.clear()
        self._reaper_thread = threading.Thread(
            target=self._reaper_loop, name="repro-service-reaper", daemon=True
        )
        self._reaper_thread.start()

    def _stop_reaper(self) -> None:
        self._reaper_stop.set()
        if self._reaper_thread is not None:
            self._reaper_thread.join(5.0)
            self._reaper_thread = None

    def health(self) -> Dict[str, Any]:
        counts = self.store.counts()
        return {
            "ok": True,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue": counts,
            "queue_depth": counts[jobstore.QUEUED],
            "inflight": self.worker.inflight,
            "workers": self.worker.concurrency,
            "live_workers": self.workers_seen.live(),
            "lease_seconds": self.lease_seconds,
            "auth": self.token is not None,
            "draining": self.worker.stopping,
            "cache_dir": str(self.cache.root),
            "trace_dir": str(self.traces.root),
            "db": str(self.store.path),
        }

    def metrics(self) -> Dict[str, Any]:
        """Current value of every registered stat (``GET /metrics``)."""
        return self.registry.delta()

    # -- lifecycle -------------------------------------------------------

    def start(self, run_scheduler: bool = True) -> None:
        """Start HTTP, the lease reaper (and optionally the daemon's worker)."""
        self._boot(run_scheduler)
        if run_scheduler:
            self._worker_thread = threading.Thread(
                target=self.worker.run, name="repro-service-worker", daemon=True
            )
            self._worker_thread.start()

    def run(self) -> None:
        """Blocking serve loop for the CLI: HTTP on a thread, the worker here."""
        self._boot(True)
        try:
            self.worker.run()
        finally:
            self._close()

    def request_stop(self) -> None:
        """Signal-handler hook: begin graceful drain."""
        self.worker.request_stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop background threads started by :meth:`start` and close up."""
        self.worker.request_stop()
        if self._worker_thread is not None:
            self._worker_thread.join(timeout)
            self._worker_thread = None
        self._close()

    def _boot(self, run_worker: bool) -> None:
        """Start HTTP and the lease reaper.

        A job a crashed daemon left ``running`` is the reaper's once its
        lease lapses, like any other abandoned claim.  The code digest
        is taken first, before any request is served: claims, uploads
        and result keys then name the code this process imported.
        """
        code_digest()
        self._http_thread = threading.Thread(
            target=self.server.serve_forever, name="repro-service-http", daemon=True
        )
        self._http_thread.start()
        self._start_reaper()
        if run_worker:
            self.log.event("scheduler_started", workers=self.worker.concurrency)

    def _close(self) -> None:
        self._stop_reaper()
        self._stop_http()
        self.store.close()

    def _stop_http(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._http_thread is not None:
            self._http_thread.join(5.0)
            self._http_thread = None


__all__ = [
    "ForeignCodeError",
    "IngestError",
    "LeaseLostError",
    "QueueFullError",
    "ServiceDaemon",
    "ServiceStats",
    "StoreSource",
    "SubmitError",
    "TokenBucketLimiter",
    "WorkerProtocolError",
    "WorkerTracker",
]

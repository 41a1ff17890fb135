"""Persistent simulation job-queue service.

Turns the one-shot simulation CLI into a long-lived daemon: jobs are
submitted over a stdlib HTTP JSON API, persisted in a SQLite
:class:`~repro.service.jobstore.JobStore`, executed by a retrying
process pool built on the parallel sweep engine, and their results
written through the same content-addressed disk cache the offline
runner uses — so the service and CLI sweeps share one result store, and
re-submitting a solved identity completes instantly.

Every execution path runs one loop, :class:`~repro.service.worker.Worker`:
the daemon's own pool reads the store directly, and remote ``repro
worker`` processes claim jobs over the same HTTP API under renewable
work leases, so timeouts, retries, leases and drains hold on every
machine.  A lease reaper re-queues the claims of workers that stop
heartbeating, so a crashed worker costs one lease interval, never a
job.  Mutating routes can require a bearer token
(``$REPRO_SERVICE_TOKEN``) and are protected by queue-depth
backpressure and optional per-client rate limiting (HTTP 429 +
``Retry-After``).

Layout:

- :mod:`repro.service.jobstore` — durable queue (states, priorities,
  dedup, work leases, crash recovery)
- :mod:`repro.service.worker` — the one claim/run/renew/harvest/drain
  loop, timeouts, and the HTTP job source
- :mod:`repro.service.api` — HTTP JSON routes (auth, backpressure)
- :mod:`repro.service.client` — urllib client used by the CLI verbs
- :mod:`repro.service.daemon` — one process wiring it all together,
  with the store job source and its retry rule

See DESIGN.md §8 for the architecture and the state machine, and §13
for the distributed sweep fabric.
"""

from repro.service.client import JobFailed, ServiceClient, ServiceError, default_url
from repro.service.daemon import (
    QueueFullError,
    ServiceDaemon,
    ServiceStats,
    StoreSource,
    SubmitError,
    WorkerProtocolError,
)
from repro.service.jobstore import Job, JobStore, default_db_path
from repro.service.worker import HttpSource, Worker, WorkerStats

__all__ = [
    "HttpSource",
    "Job",
    "JobFailed",
    "JobStore",
    "QueueFullError",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "ServiceStats",
    "StoreSource",
    "SubmitError",
    "Worker",
    "WorkerProtocolError",
    "WorkerStats",
    "default_db_path",
    "default_url",
]

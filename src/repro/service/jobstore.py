"""SQLite-backed durable job store for the simulation service.

One row per submitted simulation job.  The store is the service's only
durable state: results themselves live in the content-addressed disk
cache (:mod:`repro.sim.diskcache`), keyed by the same ``cache_key`` the
offline runner uses, so the daemon and CLI sweeps share one result
store and a job row only needs to remember its key.

State machine::

    queued ──claim──▶ running ──finish──▶ done
      ▲                 │
      │   retry/drain/  ├──fail (attempts exhausted)──▶ failed
      └─lease expiry────┘
    queued ──cancel──▶ cancelled

Identical jobs deduplicate on their cache key: a partial unique index
over active rows guarantees at most one ``queued``/``running`` job per
(workload, design, config) identity, and :meth:`JobStore.submit`
returns the existing row instead of inserting a twin (raising the
surviving row's priority when the new submission outranks it).

Claims are *leases*: :meth:`JobStore.claim` records which worker took
the job (``worker_id``) and until when the claim is valid
(``lease_until``).  Workers renew via :meth:`JobStore.heartbeat`; a
reaper (:meth:`JobStore.reap_expired`) continuously re-queues jobs
whose lease lapsed — a crashed or partitioned worker loses its jobs
within one lease interval instead of holding them forever.  Owner
guards on :meth:`finish`/:meth:`fail`/:meth:`requeue` make a worker
that lost its lease unable to complete, fail or hand back a job that
has since been handed elsewhere.

The store is safe for concurrent use from the HTTP handler threads,
the daemon's worker thread, and the reaper thread of one daemon process
(one connection guarded by a lock, WAL journal, ``BEGIN IMMEDIATE``
claims).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
#: States that still occupy the dedup slot for a cache key.
ACTIVE_STATES = (QUEUED, RUNNING)
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Environment variable overriding the default job database location.
SERVICE_DB_ENV = "REPRO_SERVICE_DB"


def default_db_path() -> Path:
    """``$REPRO_SERVICE_DB``, else ``$XDG_CACHE_HOME/repro-ptmc/service.db``."""
    override = os.environ.get(SERVICE_DB_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(base) / "repro-ptmc" / "service.db"


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id           TEXT PRIMARY KEY,
    key          TEXT NOT NULL,
    workload     TEXT NOT NULL,
    design       TEXT NOT NULL,
    config_json  TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    state        TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    timeout      REAL,
    not_before   REAL NOT NULL DEFAULT 0,
    source       TEXT,
    error        TEXT,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    worker_id    TEXT,
    lease_until  REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim
    ON jobs (state, not_before, priority, created_at);
CREATE UNIQUE INDEX IF NOT EXISTS idx_jobs_active_key
    ON jobs (key) WHERE state IN ('queued', 'running');
"""

#: Columns added after the v1 schema shipped; applied by ALTER TABLE on
#: databases created before them (CREATE TABLE IF NOT EXISTS is a no-op
#: there).
_MIGRATIONS = (
    ("worker_id", "TEXT"),
    ("lease_until", "REAL"),
)

@dataclasses.dataclass
class Job:
    """One job row, as seen by workers, the API, and the CLI."""

    id: str
    key: str
    workload: str
    design: str
    config: Dict[str, Any]
    priority: int
    state: str
    attempts: int
    max_attempts: int
    timeout: Optional[float]
    not_before: float
    source: Optional[str]
    error: Optional[str]
    created_at: float
    updated_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    worker_id: Optional[str] = None
    lease_until: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def deadline(self) -> Optional[float]:
        """When the current attempt times out (``started_at + timeout``).

        ``None`` without a claim or a timeout; a zero timeout means none,
        as in the worker loop.  :meth:`JobStore.heartbeat` applies the
        same rule in SQL.
        """
        if not self.timeout or self.started_at is None:
            return None
        return self.started_at + self.timeout

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (what ``GET /jobs/<id>`` returns)."""
        return dataclasses.asdict(self)


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        key=row["key"],
        workload=row["workload"],
        design=row["design"],
        config=json.loads(row["config_json"]),
        priority=row["priority"],
        state=row["state"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        timeout=row["timeout"],
        not_before=row["not_before"],
        source=row["source"],
        error=row["error"],
        created_at=row["created_at"],
        updated_at=row["updated_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        worker_id=row["worker_id"],
        lease_until=row["lease_until"],
    )


def _escape_like(prefix: str) -> str:
    """Escape LIKE wildcards in a user-supplied prefix (``ESCAPE '\\'``)."""
    return (
        prefix.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )


class JobStore:
    """Durable queue of simulation jobs in one SQLite file."""

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            existing = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(jobs)")
            }
            for column, decl in _MIGRATIONS:
                if column not in existing:
                    self._conn.execute(
                        f"ALTER TABLE jobs ADD COLUMN {column} {decl}"
                    )
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        workload: str,
        design: str,
        key: str,
        config: Optional[Dict[str, Any]] = None,
        priority: int = 0,
        max_attempts: int = 3,
        timeout: Optional[float] = None,
        state: str = QUEUED,
        source: Optional[str] = None,
    ) -> "tuple[Job, bool]":
        """Insert a job, deduplicating on its cache key.

        Returns ``(job, created)``: when an active (queued/running) job
        already exists for ``key`` the existing row is returned with
        ``created=False`` — after raising its priority to
        ``MAX(existing, new)``, so joining a higher-priority submission
        never leaves the surviving row stuck at its old rank.
        ``state=DONE`` records an instantly-complete job (the submit
        path found a cached result).
        """
        if state not in (QUEUED, DONE):
            raise ValueError(f"jobs are submitted queued or done, not {state!r}")
        now = time.time()
        job_id = uuid.uuid4().hex
        with self._lock:
            if state == QUEUED:
                existing = self._conn.execute(
                    "SELECT * FROM jobs WHERE key = ? AND state IN (?, ?)",
                    (key, QUEUED, RUNNING),
                ).fetchone()
                if existing is not None:
                    if priority > existing["priority"]:
                        self._conn.execute(
                            "UPDATE jobs SET priority = ?, updated_at = ? "
                            "WHERE id = ?",
                            (priority, now, existing["id"]),
                        )
                        self._conn.commit()
                        return self.get(existing["id"]), False
                    return _row_to_job(existing), False
            self._conn.execute(
                "INSERT INTO jobs (id, key, workload, design, config_json, "
                "priority, state, attempts, max_attempts, timeout, not_before, "
                "source, created_at, updated_at, finished_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?, ?, 0, ?, ?, ?, ?)",
                (
                    job_id,
                    key,
                    workload,
                    design,
                    json.dumps(config or {}, sort_keys=True),
                    priority,
                    state,
                    max_attempts,
                    timeout,
                    source,
                    now,
                    now,
                    now if state == DONE else None,
                ),
            )
            self._conn.commit()
        return self.get(job_id), True

    # -- worker side -----------------------------------------------------

    def claim(
        self,
        worker_id: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> Optional[Job]:
        """Atomically lease the best eligible queued job to one worker.

        Eligibility honours backoff (``not_before``); ordering is
        priority (higher first), then FIFO on submission time.  The
        claimed row records ``worker_id`` and ``lease_until = now +
        lease_seconds`` — the deadline by which the worker must
        :meth:`heartbeat` or lose the job to :meth:`reap_expired`.
        """
        now = time.time() if now is None else now
        lease_until = now + lease_seconds
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT id FROM jobs WHERE state = ? AND not_before <= ? "
                    "ORDER BY priority DESC, created_at ASC, id ASC LIMIT 1",
                    (QUEUED, now),
                ).fetchone()
                if row is None:
                    self._conn.execute("ROLLBACK")
                    return None
                self._conn.execute(
                    "UPDATE jobs SET state = ?, attempts = attempts + 1, "
                    "started_at = ?, updated_at = ?, worker_id = ?, "
                    "lease_until = ? WHERE id = ?",
                    (RUNNING, now, now, worker_id, lease_until, row["id"]),
                )
                self._conn.commit()
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            return self.get(row["id"])

    def heartbeat(
        self,
        job_id: str,
        worker_id: str,
        lease_seconds: float = 30.0,
        now: Optional[float] = None,
    ) -> bool:
        """Renew one running job's lease; ``False`` means the lease is lost.

        The renewal is owner-guarded: a worker whose job was reaped (and
        possibly re-leased to another worker) gets ``False`` back and
        must abandon the attempt — its eventual ``finish``/``fail`` will
        be rejected by the same guard.  It is also refused once the job
        is past its :attr:`Job.deadline`, so no worker can hold a hung
        job beyond its timeout: the lease lapses and
        :meth:`reap_expired` takes the job back.
        """
        now = time.time() if now is None else now
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET lease_until = ?, updated_at = ? "
                "WHERE id = ? AND state = ? AND worker_id = ? "
                "AND (timeout IS NULL OR timeout = 0 "
                "OR started_at + timeout >= ?)",
                (now + lease_seconds, now, job_id, RUNNING, worker_id, now),
            )
            self._conn.commit()
            return cur.rowcount > 0

    def reap_expired(self, now: Optional[float] = None) -> List[Job]:
        """Re-queue (or terminally fail) every job whose lease lapsed.

        A ``running`` row without a lease (left by a daemon that predates
        leases, in a migrated database) counts as lapsed.  The claim's
        attempt is *not* refunded — a job whose worker keeps dying, or
        keeps crashing its daemon, must still exhaust its bounded
        retries.  A job already on its last attempt fails terminally
        here rather than looping.  A job past its :attr:`Job.deadline`
        records a timeout error either way, as a local timeout does.
        Returns the reaped jobs as they were *before* reaping (so the
        caller can see which worker lost each lease).
        """
        now = time.time() if now is None else now
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state = ? "
                "AND (lease_until IS NULL OR lease_until < ?)",
                (RUNNING, now),
            ).fetchall()
            expired = [_row_to_job(row) for row in rows]
            for job in expired:
                worker = job.worker_id or "?"
                timeout_error = None
                if job.deadline is not None and now > job.deadline:
                    timeout_error = (
                        f"timeout: job exceeded its deadline (worker {worker} "
                        f"stopped renewing its lease)"
                    )
                if job.attempts >= job.max_attempts:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, error = ?, updated_at = ?, "
                        "finished_at = ?, lease_until = NULL "
                        "WHERE id = ? AND state = ?",
                        (
                            FAILED,
                            timeout_error
                            or f"lease expired (worker {worker} "
                            f"presumed dead; attempts exhausted)",
                            now,
                            now,
                            job.id,
                            RUNNING,
                        ),
                    )
                else:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, not_before = 0, "
                        "started_at = NULL, worker_id = NULL, "
                        "lease_until = NULL, error = COALESCE(?, error), "
                        "updated_at = ? WHERE id = ? AND state = ?",
                        (QUEUED, timeout_error, now, job.id, RUNNING),
                    )
            self._conn.commit()
        return expired

    def finish(self, job_id: str, source: str, worker_id: str) -> bool:
        """``running -> done`` (result already persisted in the disk cache).

        Like every transition of a claimed job, owner-guarded: ``False``
        means ``worker_id`` no longer holds the lease (the job was reaped
        and re-queued or handed to another worker).
        """
        now = time.time()
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, source = ?, updated_at = ?, "
                "finished_at = ?, lease_until = NULL "
                "WHERE id = ? AND state = ? AND worker_id = ?",
                (DONE, source, now, now, job_id, RUNNING, worker_id),
            )
            self._conn.commit()
            return cur.rowcount > 0

    def fail(
        self,
        job_id: str,
        error: str,
        worker_id: str,
        retry_delay: Optional[float] = None,
    ) -> bool:
        """``running -> failed``, or back to ``queued`` after ``retry_delay``.

        The retrying path clears the claim bookkeeping (``started_at``,
        ``worker_id``, ``lease_until``) exactly like requeue/reap do, so
        a re-queued row never carries a stale claim.  Owner-guarded (see
        :meth:`finish`).
        """
        now = time.time()
        with self._lock:
            if retry_delay is None:
                cur = self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, updated_at = ?, "
                    "finished_at = ?, lease_until = NULL "
                    "WHERE id = ? AND state = ? AND worker_id = ?",
                    (FAILED, error, now, now, job_id, RUNNING, worker_id),
                )
            else:
                cur = self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, not_before = ?, "
                    "started_at = NULL, worker_id = NULL, lease_until = NULL, "
                    "updated_at = ? WHERE id = ? AND state = ? AND worker_id = ?",
                    (QUEUED, error, now + retry_delay, now, job_id, RUNNING, worker_id),
                )
            self._conn.commit()
            return cur.rowcount > 0

    def requeue(self, job_id: str, worker_id: str) -> bool:
        """``running -> queued`` with the attempt refunded (a released claim).

        Owner-guarded (see :meth:`finish`): ``False`` means ``worker_id``
        no longer holds the job's lease.
        """
        now = time.time()
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, not_before = 0, started_at = NULL, "
                "worker_id = NULL, lease_until = NULL, "
                "attempts = MAX(attempts - 1, 0), updated_at = ? "
                "WHERE id = ? AND state = ? AND worker_id = ?",
                (QUEUED, now, job_id, RUNNING, worker_id),
            )
            self._conn.commit()
            return cur.rowcount > 0

    # -- client side -----------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/terminal jobs are left alone."""
        now = time.time()
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, updated_at = ?, finished_at = ? "
                "WHERE id = ? AND state = ?",
                (CANCELLED, now, now, job_id, QUEUED),
            )
            self._conn.commit()
            return cur.rowcount > 0

    def active_for_key(self, key: str) -> Optional[Job]:
        """The queued/running job occupying ``key``'s dedup slot, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE key = ? AND state IN (?, ?)",
                (key, QUEUED, RUNNING),
            ).fetchone()
        return _row_to_job(row) if row is not None else None

    def get(self, job_id: str) -> Job:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id!r}")
        return _row_to_job(row)

    def find(self, job_id_prefix: str) -> Job:
        """Exact-id lookup, falling back to a unique id prefix (CLI sugar).

        The prefix is user input, so LIKE metacharacters (``%``, ``_``)
        are escaped — ``repro wait '%'`` must not match every job.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ? OR id LIKE ? ESCAPE '\\' "
                "LIMIT 3",
                (job_id_prefix, _escape_like(job_id_prefix) + "%"),
            ).fetchall()
        if not rows:
            raise KeyError(f"no job {job_id_prefix!r}")
        if len(rows) > 1:
            raise KeyError(f"ambiguous job id prefix {job_id_prefix!r}")
        return _row_to_job(rows[0])

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> List[Job]:
        """Most recently updated first, optionally filtered by state."""
        with self._lock:
            if state is None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs ORDER BY updated_at DESC LIMIT ?",
                    (limit,),
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE state = ? "
                    "ORDER BY updated_at DESC LIMIT ?",
                    (state, limit),
                ).fetchall()
        return [_row_to_job(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Row count per state (zero-filled over all states)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts


__all__ = [
    "ACTIVE_STATES",
    "CANCELLED",
    "DONE",
    "FAILED",
    "Job",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "SERVICE_DB_ENV",
    "STATES",
    "TERMINAL_STATES",
    "default_db_path",
]

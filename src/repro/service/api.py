"""Stdlib-only HTTP JSON API for the job-queue daemon.

Routes (all JSON in, JSON out)::

    POST   /jobs             submit {workload, design, config?, priority?,
                             max_attempts?, timeout?} -> job (201 created,
                             200 when joined/served-from-cache)
    GET    /jobs             list jobs (?state=queued&limit=50)
    GET    /jobs/<id>        one job
    GET    /jobs/<id>/result the finished job's SimResult JSON
    DELETE /jobs/<id>        cancel a queued job
    POST   /jobs/claim       lease the best queued job to a worker
                             {worker_id, code, lease_seconds?} -> job or
                             {"job": null} when the queue is empty; 409
                             and no lease when ``code`` (the worker's
                             code digest) is not the daemon's
    POST   /jobs/<id>/heartbeat
                             renew a worker's lease {worker_id,
                             lease_seconds?}; 409 when the lease is lost
    PUT    /jobs/<id>/result upload a worker's finished result
                             {worker_id, code, result, source?}; the
                             daemon caches it and marks the job done
                             (409 and a failed attempt for other code)
    POST   /jobs/<id>/fail   report a worker-side failure {worker_id,
                             error} (retries with backoff like local)
    POST   /jobs/<id>/release
                             hand an unfinished claim back {worker_id}:
                             re-queued with its attempt refunded
    POST   /traces           upload {content | content_b64, name?, format?,
                             mode?} -> characterization sidecar (201 new,
                             200 when deduplicated by content hash)
    GET    /traces           list stored traces (characterizations)
    GET    /traces/<hash>    one trace's characterization (prefix ok)
    GET    /healthz          liveness + queue counts + uptime
    GET    /metrics          telemetry registry dump (service.*, runner.*,
                             trace.*, worker.*)
    GET    /metrics?format=prometheus
                             the same registry as Prometheus text
                             exposition (scrapeable by stock tooling)

Errors are ``{"error": <message>}`` with a meaningful status: 400 for a
bad submission, 401 for a missing/invalid bearer token on a mutating
route, 404 unknown job, 409 for result-of-unfinished, cancel-of-running
or a lost lease, 410 when a done job's cache entry was pruned, 429
(with ``Retry-After``) under rate limiting or queue backpressure.
Every error body is JSON — including the stdlib-generated ones
(unsupported method, unparseable request line), via the ``send_error``
override.

Auth: when the daemon holds a token (``REPRO_SERVICE_TOKEN`` or the
``--token`` flag), every mutating request (POST/PUT/DELETE) must carry
``Authorization: Bearer <token>``; comparison is constant-time.  Reads
stay open — metrics scrapers and dashboards need no secret.
"""

from __future__ import annotations

import hmac
import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import prometheus
from repro.obs.tracing import span
from repro.service import jobstore
from repro.service.daemon import (
    ForeignCodeError,
    IngestError,
    LeaseLostError,
    QueueFullError,
    SubmitError,
    WorkerProtocolError,
)
from repro.traces.store import TraceStoreError

if TYPE_CHECKING:
    from repro.service.daemon import ServiceDaemon

#: Maximum accepted request body, bytes (a job submission is tiny).
MAX_BODY_BYTES = 1 << 20

#: Result uploads carry a full SimResult (with time series) — allow more.
MAX_RESULT_BODY_BYTES = 16 << 20

#: Trace uploads carry whole trace files (base64 in JSON) — allow more.
MAX_TRACE_BODY_BYTES = 64 << 20

#: ``Retry-After`` hint on queue-full backpressure responses, seconds.
QUEUE_FULL_RETRY_AFTER = 2.0


class ApiError(Exception):
    """An HTTP-visible error: (status, message[, extra headers])."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the daemon; one instance per request."""

    daemon_ref: "ServiceDaemon" = None  # set by make_server on the subclass
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"

    # -- plumbing --------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; telemetry covers observability

    def _reply(
        self, status: int, payload: Any, headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._reply_bytes(status, body, "application/json", headers)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        self._reply_bytes(status, text.encode("utf-8"), content_type)

    def _reply_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code, message=None, explain=None) -> None:  # noqa: A002
        """JSON error bodies even for stdlib-raised errors.

        ``BaseHTTPRequestHandler`` calls this itself for unsupported
        methods (``PUT /metrics`` → 501) and malformed request lines;
        the default implementation writes an HTML page, which no JSON
        client of this API expects.
        """
        self._reply(code, {"error": message or self.responses.get(code, ("", ""))[0]})

    def _body(self, max_bytes: int = MAX_BODY_BYTES) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > max_bytes:
            raise ApiError(413, "request body too large")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"invalid JSON body: {exc}") from None

    def _route(self) -> Tuple[str, Optional[str], Optional[str], Any]:
        """``(collection, job_id, subresource, query)`` for this request."""
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        collection = parts[0] if parts else ""
        job_id = parts[1] if len(parts) > 1 else None
        sub = parts[2] if len(parts) > 2 else None
        if len(parts) > 3:
            raise ApiError(404, f"no route for {split.path!r}")
        return collection, job_id, sub, query

    def _job(self, job_id: str) -> jobstore.Job:
        try:
            return self.daemon_ref.store.find(job_id)
        except KeyError as exc:
            raise ApiError(404, str(exc)) from None

    def _check_rate_limit(self, collection: str) -> None:
        """Token-bucket limiting per client address (``/healthz`` exempt)."""
        if collection == "healthz":
            return
        client = self.client_address[0] if self.client_address else "?"
        allowed, retry_after = self.daemon_ref.limiter.allow(client)
        if not allowed:
            raise ApiError(
                429,
                "rate limit exceeded; slow down",
                headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )

    def _check_auth(self, method: str) -> None:
        """Constant-time bearer-token check on mutating methods."""
        token = self.daemon_ref.token
        if token is None or method == "GET":
            return
        header = self.headers.get("Authorization") or ""
        presented = header[7:] if header.startswith("Bearer ") else ""
        if not hmac.compare_digest(presented.encode(), token.encode()):
            raise ApiError(
                401,
                "missing or invalid bearer token",
                headers={"WWW-Authenticate": "Bearer"},
            )

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        self._status = 0
        with span("http.request", category="http", method=method, path=self.path):
            try:
                collection, job_id, sub, query = self._route()
                self._check_rate_limit(collection)
                self._check_auth(method)
                handler = getattr(self, f"_{method}_{collection}", None)
                if handler is None:
                    # PUT exists solely for /jobs/<id>/result; elsewhere
                    # it stays 501 exactly as before do_PUT existed.
                    if method == "PUT" and collection != "jobs":
                        raise ApiError(
                            501, f"method PUT not supported on /{collection}"
                        )
                    raise ApiError(404, f"no route for {method} {self.path!r}")
                handler(job_id, sub, query)
            except ApiError as exc:
                self._reply(exc.status, {"error": exc.message}, exc.headers)
            except Exception as exc:  # noqa: BLE001 — never kill the server thread
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        elapsed = time.perf_counter() - started
        daemon = self.daemon_ref
        if daemon.stats.http_request_seconds is not None:
            daemon.stats.http_request_seconds.observe(elapsed)
        daemon.log.event(
            "http_request",
            method=method,
            path=self.path,
            status=self._status,
            seconds=round(elapsed, 6),
        )

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- routes ----------------------------------------------------------

    def _POST_jobs(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id == "claim" and sub is None:
            self._worker_route(self.daemon_ref.claim_job)
            return
        routes = {
            "heartbeat": self.daemon_ref.heartbeat_job,
            "fail": self.daemon_ref.remote_fail,
            "release": self.daemon_ref.release_job,
        }
        if job_id is not None and sub in routes:
            self._worker_route(routes[sub], job_id)
            return
        if job_id is not None or sub is not None:
            raise ApiError(404, "POST only to /jobs, /jobs/claim, "
                                "/jobs/<id>/heartbeat, /jobs/<id>/fail, "
                                "or /jobs/<id>/release")
        try:
            job, created = self.daemon_ref.submit(self._body())
        except QueueFullError as exc:
            raise ApiError(
                429,
                str(exc),
                headers={"Retry-After": f"{QUEUE_FULL_RETRY_AFTER:.3f}"},
            ) from None
        except SubmitError as exc:
            raise ApiError(400, str(exc)) from None
        self._reply(201 if created else 200, {"job": job.as_dict(), "created": created})

    def _worker_route(self, transition, *job_id: str, max_bytes: int = MAX_BODY_BYTES) -> None:
        """One worker transition: 400 bad payload, 404 unknown job, 409 lease
        lost or worker code not the daemon's.

        A claim names no job and may answer ``{"job": null}``.
        """
        try:
            job = transition(*job_id, self._body(max_bytes=max_bytes))
        except WorkerProtocolError as exc:
            raise ApiError(400, str(exc)) from None
        except KeyError as exc:
            raise ApiError(404, str(exc)) from None
        except (LeaseLostError, ForeignCodeError) as exc:
            raise ApiError(409, str(exc)) from None
        self._reply(200, {"job": job.as_dict() if job is not None else None})

    def _PUT_jobs(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id is None or sub != "result":
            raise ApiError(404, "PUT only to /jobs/<id>/result")
        self._worker_route(
            self.daemon_ref.remote_result, job_id, max_bytes=MAX_RESULT_BODY_BYTES
        )

    def _GET_jobs(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id is None:
            state = (query.get("state") or [None])[0]
            if state is not None and state not in jobstore.STATES:
                raise ApiError(400, f"unknown state {state!r}")
            limit = (query.get("limit") or ["100"])[0]
            if not limit.isdecimal():  # SQLite reads a negative LIMIT as none
                raise ApiError(400, f"limit must be a whole number >= 0, not {limit!r}")
            jobs = self.daemon_ref.store.list_jobs(state=state, limit=int(limit))
            self._reply(200, {"jobs": [job.as_dict() for job in jobs]})
            return
        job = self._job(job_id)
        if sub is None:
            self._reply(200, {"job": job.as_dict()})
            return
        if sub != "result":
            raise ApiError(404, f"no subresource {sub!r}")
        if job.state != jobstore.DONE:
            raise ApiError(409, f"job {job.id} is {job.state}, not done")
        result = self.daemon_ref.result_for(job)
        if result is None:
            raise ApiError(410, f"result for job {job.id} evicted from cache; resubmit")
        self._reply(200, {"job_id": job.id, "result": result.to_json_dict()})

    def _DELETE_jobs(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id is None or sub is not None:
            raise ApiError(404, "DELETE /jobs/<id>")
        job = self._job(job_id)
        if self.daemon_ref.store.cancel(job.id):
            self.daemon_ref.stats.cancelled += 1
            self._reply(200, {"job": self.daemon_ref.store.get(job.id).as_dict()})
            return
        raise ApiError(409, f"job {job.id} is {job.state}; only queued jobs cancel")

    def _POST_traces(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id is not None or sub is not None:
            raise ApiError(404, "POST only to /traces")
        try:
            info, created = self.daemon_ref.ingest_trace(
                self._body(max_bytes=MAX_TRACE_BODY_BYTES)
            )
        except IngestError as exc:
            raise ApiError(400, str(exc)) from None
        self._reply(
            201 if created else 200,
            {"trace": info.to_json_dict(), "created": created},
        )

    def _GET_traces(self, job_id, sub, query) -> None:  # noqa: N802
        if sub is not None:
            raise ApiError(404, f"no subresource {sub!r}")
        if job_id is None:
            infos = self.daemon_ref.traces.list()
            self._reply(200, {"traces": [info.to_json_dict() for info in infos]})
            return
        try:
            info = self.daemon_ref.traces.info(job_id)
        except TraceStoreError as exc:
            raise ApiError(404, str(exc)) from None
        self._reply(200, {"trace": info.to_json_dict()})

    def _GET_healthz(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id is not None or sub is not None:
            raise ApiError(404, f"no route for {self.path!r}; try GET /healthz")
        self._reply(200, self.daemon_ref.health())

    def _GET_metrics(self, job_id, sub, query) -> None:  # noqa: N802
        if job_id is not None or sub is not None:
            raise ApiError(404, f"no route for {self.path!r}; try GET /metrics")
        fmt = (query.get("format") or ["json"])[0]
        if fmt == "prometheus":
            self._reply_text(
                200,
                prometheus.prometheus_exposition(self.daemon_ref.registry),
                prometheus.CONTENT_TYPE,
            )
            return
        if fmt != "json":
            raise ApiError(400, f"unknown format {fmt!r}; choose json or prometheus")
        self._reply(200, {"metrics": self.daemon_ref.metrics()})


def make_server(
    daemon: "ServiceDaemon", host: str, port: int
) -> ThreadingHTTPServer:
    """A threaded HTTP server bound to ``daemon`` (``port=0`` picks one)."""
    handler = type("BoundHandler", (_Handler,), {"daemon_ref": daemon})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


__all__ = [
    "ApiError",
    "MAX_BODY_BYTES",
    "MAX_RESULT_BODY_BYTES",
    "MAX_TRACE_BODY_BYTES",
    "QUEUE_FULL_RETRY_AFTER",
    "make_server",
]

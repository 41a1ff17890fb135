"""urllib-based client for the job-queue daemon's HTTP API.

The CLI verbs (``repro submit/jobs/result/cancel/wait``) are thin
wrappers over :class:`ServiceClient`; scripts can use it directly::

    client = ServiceClient("http://127.0.0.1:8035")
    job = client.submit("lbm06", "dynamic_ptmc", ops=4000, warmup=6000)
    done = client.wait(job["id"], timeout=300)
    result = client.result(job["id"])          # a SimResult
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.sim.diskcache import code_digest
from repro.sim.results import SimResult

#: Environment variable naming the daemon to talk to.
SERVICE_URL_ENV = "REPRO_SERVICE_URL"

#: Environment variable holding the shared bearer token.  When set on the
#: daemon every mutating request must present it; when set on a client or
#: worker process it is sent automatically.
SERVICE_TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Default daemon address (must match the CLI's ``serve`` default port).
DEFAULT_URL = "http://127.0.0.1:8035"


def default_url() -> str:
    """``$REPRO_SERVICE_URL`` or the well-known local daemon address."""
    return os.environ.get(SERVICE_URL_ENV) or DEFAULT_URL


class ServiceError(RuntimeError):
    """The daemon answered with an error (or could not be reached).

    ``retry_after`` carries the daemon's ``Retry-After`` hint (seconds)
    on 429 backpressure/rate-limit answers, ``None`` otherwise.
    """

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class JobFailed(ServiceError):
    """Waited-on job reached a terminal state other than ``done``."""

    def __init__(self, job: Dict[str, Any]) -> None:
        self.job = job
        super().__init__(
            409, f"job {job['id']} ended {job['state']}: {job.get('error')}"
        )


class ServiceClient:
    """Talks JSON to one daemon; raises :class:`ServiceError` on failure.

    ``token`` (default ``$REPRO_SERVICE_TOKEN``) is sent as a bearer
    token on every request; daemons without auth ignore it.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        timeout: float = 10.0,
        token: Optional[str] = None,
    ) -> None:
        self.url = (url or default_url()).rstrip("/")
        self.timeout = timeout
        self.token = (
            token if token is not None
            else os.environ.get(SERVICE_TOKEN_ENV) or None
        )

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> Any:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
            except Exception:  # noqa: BLE001 — error body is best-effort
                message = str(exc)
            retry_after = None
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServiceError(exc.code, message, retry_after=retry_after) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.url}: {exc.reason}") from None

    # -- verbs -----------------------------------------------------------

    def submit(
        self,
        workload: str,
        design: str,
        ops: Optional[int] = None,
        warmup: Optional[int] = None,
        priority: int = 0,
        max_attempts: Optional[int] = None,
        timeout: Optional[float] = None,
        **options: Any,
    ) -> Dict[str, Any]:
        """Submit one job; returns the job dict (``job["created"]`` set).

        ``workload`` may be a roster name or ``trace:<hash>``.
        ``options`` are run options by the names the job's config
        carries (:data:`repro.sim.runner.RUN_OPTIONS`: ``llc_policy``,
        and ``trace_limit``, ``trace_loop`` and ``trace_seed``, which
        apply to a trace only); ``ops`` and ``warmup`` are short for
        ``ops_per_core`` and ``warmup_ops``.  A ``None`` is left out.
        The daemon resolves and checks them.
        """
        config = {"ops_per_core": ops, "warmup_ops": warmup, **options}
        payload: Dict[str, Any] = {
            "workload": workload,
            "design": design,
            "config": {name: value for name, value in config.items() if value is not None},
            "priority": priority,
        }
        if max_attempts is not None:
            payload["max_attempts"] = max_attempts
        if timeout is not None:
            payload["timeout"] = timeout
        answer = self._request("POST", "/jobs", payload)
        job = answer["job"]
        job["created"] = answer["created"]
        return job

    def jobs(self, state: Optional[str] = None, limit: int = 100) -> List[Dict[str, Any]]:
        query = f"?limit={limit}" + (f"&state={state}" if state else "")
        return self._request("GET", f"/jobs{query}")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def result(self, job_id: str) -> SimResult:
        answer = self._request("GET", f"/jobs/{job_id}/result")
        return SimResult.from_json_dict(answer["result"])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")["job"]

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; raise :class:`JobFailed` unless done."""
        deadline = (time.monotonic() + timeout) if timeout else None
        while True:
            job = self.job(job_id)
            if job["state"] == "done":
                return job
            if job["state"] in ("failed", "cancelled"):
                raise JobFailed(job)
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(408, f"timed out waiting for job {job_id}")
            time.sleep(poll)

    # -- worker protocol (used by ``repro worker``) ----------------------

    def claim(
        self, worker_id: str, lease_seconds: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Lease the best queued job; ``None`` when the queue is empty.

        The claim names the code this process runs; a daemon running
        other code refuses it with 409 and leases nothing.
        """
        payload = {
            "worker_id": worker_id,
            "lease_seconds": lease_seconds,
            "code": code_digest(),
        }
        return self._request("POST", "/jobs/claim", payload)["job"]

    def heartbeat(
        self,
        job_id: str,
        worker_id: str,
        lease_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Renew a lease; raises :class:`ServiceError` (409) when lost."""
        payload = {"worker_id": worker_id, "lease_seconds": lease_seconds}
        return self._request("POST", f"/jobs/{job_id}/heartbeat", payload)["job"]

    def upload_result(
        self,
        job_id: str,
        worker_id: str,
        result: SimResult,
        source: str = "remote",
    ) -> Dict[str, Any]:
        """Replicate a finished result to the daemon's cache; job -> done.

        The upload names the code that produced it; a daemon running
        other code refuses it with 409.
        """
        payload = {
            "worker_id": worker_id,
            "result": result.to_json_dict(),
            "source": source,
            "code": code_digest(),
        }
        return self._request("PUT", f"/jobs/{job_id}/result", payload)["job"]

    def fail_job(self, job_id: str, worker_id: str, error: str) -> Dict[str, Any]:
        """Report a worker-side failure (daemon applies its retry policy)."""
        payload = {"worker_id": worker_id, "error": error}
        return self._request("POST", f"/jobs/{job_id}/fail", payload)["job"]

    def release(self, job_id: str, worker_id: str) -> Dict[str, Any]:
        """Hand an unfinished claim back to the queue, attempt refunded."""
        payload = {"worker_id": worker_id}
        return self._request("POST", f"/jobs/{job_id}/release", payload)["job"]

    def upload_trace(
        self,
        data: bytes,
        name: str = "",
        fmt: str = "auto",
        mode: str = "strict",
    ) -> Dict[str, Any]:
        """Upload raw trace bytes (text/binary/gzip); returns the sidecar.

        The answer dict is the trace characterization with ``created``
        merged in (``False`` when deduplicated by content hash).
        """
        import base64

        payload = {
            "content_b64": base64.b64encode(data).decode("ascii"),
            "name": name,
            "format": fmt,
            "mode": mode,
        }
        answer = self._request("POST", "/traces", payload)
        trace = answer["trace"]
        trace["created"] = answer["created"]
        return trace

    def traces(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/traces")["traces"]

    def trace_info(self, hash_or_prefix: str) -> Dict[str, Any]:
        return self._request("GET", f"/traces/{hash_or_prefix}")["trace"]

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")["metrics"]


__all__ = [
    "DEFAULT_URL",
    "JobFailed",
    "SERVICE_TOKEN_ENV",
    "SERVICE_URL_ENV",
    "ServiceClient",
    "ServiceError",
    "default_url",
]

"""Remote jobs keep the local path's timeout and retry guarantees.

A job's ``timeout`` bounds its lease renewals at the store, so a hung
attempt on a remote worker cannot be renewed forever: the heartbeat is
refused (409 over HTTP) and the reaper takes the job back when its
lease lapses.  One retry rule decides the backoff and the terminal
verdict for a local failure and for a worker's ``POST /jobs/<id>/fail``.
A claim and an upload name the code of the worker that sends them: the
daemon leases jobs only to workers running its own code, and caches
only results of its own code.
"""

import time
from concurrent.futures import Future

import pytest

from repro.service import client as client_module
from repro.service import jobstore
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobstore import Job, JobStore
from repro.sim import runner
from repro.sim.diskcache import DiskCache, code_digest
from repro.service.worker import HttpSource, _Running
from tests.test_distributed import CFG, make_daemon, submit

OPS, WARMUP = 200, 100


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.configure_disk_cache(enabled=False)
    yield
    runner.configure_disk_cache(enabled=False)


@pytest.fixture
def store(tmp_path):
    s = JobStore(tmp_path / "jobs.db")
    yield s
    s.close()


class TestTimeoutBoundsHeartbeat:
    def test_renews_before_deadline_refuses_after_then_reaped(self, store):
        t0 = time.time()
        job, _ = submit(store, timeout=5.0)
        claimed = store.claim(now=t0, worker_id="w1", lease_seconds=10.0)
        assert claimed.deadline == t0 + 5.0
        assert store.heartbeat(job.id, "w1", 10.0, now=t0 + 3.0)
        assert store.get(job.id).lease_until == pytest.approx(t0 + 13.0, abs=1e-6)
        # past the deadline: refused, and the lease is left as it was
        assert not store.heartbeat(job.id, "w1", 10.0, now=t0 + 6.0)
        held = store.get(job.id)
        assert held.state == jobstore.RUNNING
        assert held.lease_until == pytest.approx(t0 + 13.0, abs=1e-6)
        assert store.reap_expired(now=t0 + 12.0) == []
        reaped = store.reap_expired(now=t0 + 14.0)
        assert [j.id for j in reaped] == [job.id]
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.worker_id is None and back.lease_until is None
        assert back.attempts == 1
        assert back.error.startswith("timeout: job exceeded its deadline")

    def test_last_attempt_past_deadline_fails_as_timeout(self, store):
        t0 = time.time()
        job, _ = submit(store, timeout=5.0, max_attempts=1)
        store.claim(now=t0, worker_id="w1", lease_seconds=10.0)
        assert not store.heartbeat(job.id, "w1", 10.0, now=t0 + 9.0)
        store.reap_expired(now=t0 + 11.0)
        failed = store.get(job.id)
        assert failed.state == jobstore.FAILED
        assert failed.error.startswith("timeout: job exceeded its deadline")

    def test_lapse_before_deadline_is_a_lease_expiry(self, store):
        t0 = time.time()
        job, _ = submit(store, timeout=100.0, max_attempts=1)
        store.claim(now=t0, worker_id="w1", lease_seconds=10.0)
        store.reap_expired(now=t0 + 11.0)
        failed = store.get(job.id)
        assert failed.state == jobstore.FAILED
        assert failed.error.startswith("lease expired")

    def test_job_without_timeout_renews_indefinitely(self, store):
        t0 = time.time()
        job, _ = submit(store)
        store.claim(now=t0, worker_id="w1", lease_seconds=10.0)
        assert store.get(job.id).deadline is None
        assert store.heartbeat(job.id, "w1", 10.0, now=t0 + 10_000.0)

    def test_daemon_default_timeout_reaches_remote_claims(self, tmp_path):
        daemon = make_daemon(tmp_path, default_timeout=0.2)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
            claimed = client.claim("w1", lease_seconds=60.0)
            assert claimed["id"] == job["id"]
            assert claimed["timeout"] == 0.2
            time.sleep(0.3)
            with pytest.raises(ServiceError) as err:
                client.heartbeat(job["id"], "w1")
            assert err.value.status == 409
        finally:
            daemon.stop()

    def test_http_heartbeat_past_timeout_conflicts(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            client = ServiceClient(daemon.url)
            slow = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP,
                                 timeout=0.2, priority=1)
            roomy = client.submit("mcf06", "ideal", ops=OPS, warmup=WARMUP,
                                  timeout=600.0)
            assert client.claim("w1", lease_seconds=60.0)["id"] == slow["id"]
            assert client.claim("w1", lease_seconds=60.0)["id"] == roomy["id"]
            time.sleep(0.3)
            assert client.heartbeat(roomy["id"], "w1")["state"] == jobstore.RUNNING
            with pytest.raises(ServiceError) as err:
                client.heartbeat(slow["id"], "w1")
            assert err.value.status == 409
            assert "timeout" in str(err.value)
        finally:
            daemon.stop()


def fail_locally(worker, store: JobStore, job_id: str) -> None:
    """Claim ``job_id`` as the daemon's own worker and harvest a failed future."""
    job = store.claim(worker_id=worker.worker_id,
                      lease_seconds=worker.lease_seconds)
    assert job.id == job_id
    future = Future()
    future.set_exception(RuntimeError("boom"))
    worker._inflight[job.id] = _Running(
        job, future, deadline=None, renew_at=time.monotonic() + 60.0
    )
    assert worker._harvest()


class TestOneRetryRule:
    def test_local_and_remote_failures_get_same_delay_and_verdict(self, tmp_path):
        daemon = make_daemon(tmp_path, backoff_base=0.05)
        try:
            client = ServiceClient(daemon.url)
            local = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP,
                                  max_attempts=2, priority=1)
            remote = client.submit("mcf06", "ideal", ops=OPS, warmup=WARMUP,
                                   max_attempts=2)
            for attempt, delay in ((1, 0.05), (2, None)):
                time.sleep(0.1)  # past the previous attempt's backoff
                fail_locally(daemon.worker, daemon.store, local["id"])
                assert client.claim("w1", lease_seconds=60.0)["id"] == remote["id"]
                client.fail_job(remote["id"], "w1", "boom")
                rows = [daemon.store.get(job["id"]) for job in (local, remote)]
                for row in rows:
                    assert row.attempts == attempt
                    if delay is None:
                        assert row.state == jobstore.FAILED
                    else:
                        assert row.state == jobstore.QUEUED
                        backoff = row.not_before - row.updated_at
                        assert backoff == pytest.approx(delay, abs=1e-6)
            assert daemon.stats.retried == 2
            assert daemon.stats.failed == 2
        finally:
            daemon.stop()


class TestUploadNamesItsCode:
    FOREIGN = "f" * 64

    def test_result_of_other_code_is_refused_and_fails_the_attempt(
        self, tmp_path, monkeypatch
    ):
        daemon = make_daemon(tmp_path, backoff_base=0.05)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP, max_attempts=2)
            result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
            source = HttpSource(client)
            for attempt, state in ((1, jobstore.QUEUED), (2, jobstore.FAILED)):
                time.sleep(0.1)  # past the previous attempt's backoff
                claimed = Job(**client.claim("w1", lease_seconds=60.0))
                assert claimed.id == job["id"]
                # the worker's code changes between its claim and its
                # upload; 409: it drops the job as it does a lost lease
                with monkeypatch.context() as patched:
                    patched.setattr(client_module, "code_digest", lambda: self.FOREIGN)
                    assert source.finish(claimed, "w1", result, "remote") is False
                assert source.stats.lease_lost == attempt
                assert DiskCache(tmp_path / "simcache").get(claimed.key) is None
                row = daemon.store.get(job["id"])
                assert (row.state, row.attempts) == (state, attempt)
                assert row.lease_until is None
                assert self.FOREIGN in row.error and code_digest() in row.error
            assert daemon.stats.retried == 1
            assert daemon.stats.failed == 1
            assert daemon.stats.completed == 0
        finally:
            daemon.stop()

    def test_claim_of_other_code_leases_nothing(self, tmp_path, monkeypatch):
        daemon = make_daemon(tmp_path)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP, max_attempts=1)
            source = HttpSource(client)
            with monkeypatch.context() as patched:
                patched.setattr(client_module, "code_digest", lambda: self.FOREIGN)
                with pytest.raises(ServiceError) as err:
                    client.claim("stale", lease_seconds=60.0)
                assert err.value.status == 409
                assert self.FOREIGN in str(err.value) and code_digest() in str(err.value)
                assert source.claim("stale", 60.0) is None
            assert source.stats.claimed == 0
            row = daemon.store.get(job["id"])
            assert (row.state, row.attempts, row.worker_id) == (jobstore.QUEUED, 0, None)
            # a worker running the daemon's code then completes it
            claimed = source.claim("w1", 60.0)
            assert claimed.id == job["id"]
            result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
            assert source.finish(claimed, "w1", result, "remote") is True
            row = daemon.store.get(job["id"])
            assert (row.state, row.attempts) == (jobstore.DONE, 1)
            assert DiskCache(tmp_path / "simcache").get(claimed.key) is not None
        finally:
            daemon.stop()

    def test_claim_without_code_is_a_protocol_error(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
            payload = {"worker_id": "w1", "lease_seconds": 60.0}
            for code in (None, 7):
                if code is not None:
                    payload["code"] = code
                with pytest.raises(ServiceError) as err:
                    client._request("POST", "/jobs/claim", payload)
                assert err.value.status == 400
                assert "code" in str(err.value)
            row = daemon.store.get(job["id"])
            assert (row.state, row.attempts) == (jobstore.QUEUED, 0)
        finally:
            daemon.stop()

    def test_upload_without_code_is_a_protocol_error(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
            claimed = client.claim("w1", lease_seconds=60.0)
            result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
            payload = {"worker_id": "w1", "result": result.to_json_dict()}
            for code in (None, 7):
                if code is not None:
                    payload["code"] = code
                with pytest.raises(ServiceError) as err:
                    client._request("PUT", f"/jobs/{job['id']}/result", payload)
                assert err.value.status == 400
                assert "code" in str(err.value)
            row = daemon.store.get(job["id"])
            assert (row.state, row.worker_id) == (jobstore.RUNNING, "w1")
            assert DiskCache(tmp_path / "simcache").get(claimed["key"]) is None
        finally:
            daemon.stop()

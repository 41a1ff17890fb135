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

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

from repro.service import client as client_module
from repro.service import jobstore
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobstore import Job, JobStore
from repro.sim import runner
from repro.sim.diskcache import DiskCache, code_digest
from repro.service.worker import HttpSource, _Running
from tests.test_distributed import CFG, make_daemon, submit, wait_for

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


@pytest.fixture
def paused_daemon(tmp_path):
    """HTTP and reaper up, no pool: a queued job waits for a claim."""
    d = make_daemon(tmp_path)
    yield d
    d.stop()


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


def post_raw(url: str, body: bytes):
    """``(status, answer)`` of a POST of raw JSON ``body``: Python's json
    module writes inf as ``Infinity``, a client may send ``1e999``."""
    request = urllib.request.Request(
        url, data=body, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestLeasesLapse:
    """A worker's lease is a finite number of seconds > 0: a lease of inf
    would keep a hung job past its deadline, out of the reaper's reach."""

    def test_a_lease_that_never_lapses_leases_nothing(self, tmp_path):
        daemon = make_daemon(tmp_path, reaper_interval=0.05)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP, timeout=1.0)
            body = '{"worker_id": "w1", "code": "%s", "lease_seconds": 1e999}' % code_digest()
            status, answer = post_raw(f"{daemon.url}/jobs/claim", body.encode())
            assert status == 400
            assert "lease_seconds must be a number > 0 and < 2**63" in answer["error"]
            row = daemon.store.get(job["id"])
            assert (row.state, row.worker_id, row.lease_until, row.attempts) == (
                jobstore.QUEUED, None, None, 0
            )
            # the identity is not wedged: a resubmission joins the queued
            # row, a lease that lapses is reaped, and the job runs again
            again = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP, timeout=1.0)
            assert (again["id"], again["created"]) == (job["id"], False)
            assert client.claim("w1", lease_seconds=0.2)["id"] == job["id"]
            assert wait_for(lambda: daemon.store.get(job["id"]).state == jobstore.QUEUED)
            row = daemon.store.get(job["id"])
            assert (row.attempts, row.lease_until) == (1, None)
            assert daemon.workers_seen.lease_expirations == 1
        finally:
            daemon.stop()

    @pytest.mark.parametrize(
        "lease",
        [b'"abc"', b"[1]", b"true", b'"30"', b"0", b"-1", b"1e999", b"NaN", b"%d" % 2**63],
    )
    def test_a_claim_whose_lease_is_not_a_finite_number_over_zero_is_400(
        self, paused_daemon, lease
    ):
        ServiceClient(paused_daemon.url).submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        body = b'{"worker_id": "w1", "code": "%s", "lease_seconds": %s}' % (
            code_digest().encode(), lease
        )
        status, answer = post_raw(f"{paused_daemon.url}/jobs/claim", body)
        assert status == 400
        assert answer["error"].startswith("lease_seconds must be a number > 0")
        assert paused_daemon.store.counts()[jobstore.RUNNING] == 0

    def test_a_heartbeat_whose_lease_is_not_over_zero_renews_nothing(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        client.claim("w1", lease_seconds=60.0)
        held = paused_daemon.store.get(job["id"]).lease_until
        for lease in (-5.0, 0, float("inf")):
            with pytest.raises(ServiceError) as err:
                client.heartbeat(job["id"], "w1", lease_seconds=lease)
            assert err.value.status == 400
            assert "lease_seconds must be" in str(err.value)
        assert paused_daemon.store.get(job["id"]).lease_until == held
        # null or absent keeps the daemon's lease
        assert client.heartbeat(job["id"], "w1")["state"] == jobstore.RUNNING

    @pytest.mark.parametrize("lease", ["inf", "nan", "0", "-1"])
    def test_worker_cli_refuses_a_lease_that_never_lapses(
        self, tmp_path, monkeypatch, capsys, lease
    ):
        from repro.cli import main
        from repro.service.worker import Worker

        def run(worker):
            raise AssertionError("the worker claimed with a bad lease")

        monkeypatch.setattr(Worker, "run", run)
        argv = ["--cache-dir", str(tmp_path), "worker", "--url", "http://127.0.0.1:9",
                "--lease-seconds", lease, "--quiet"]
        assert main(argv) == 2
        assert "cannot start worker: lease_seconds must be" in capsys.readouterr().out


class TestFieldsAreNeitherDroppedNorCoerced:
    def test_a_failure_whose_error_is_no_string_is_400(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        client.claim("w1", lease_seconds=60.0)
        for error in ({"a": 1}, 7, None):
            with pytest.raises(ServiceError) as err:
                client._request("POST", f"/jobs/{job['id']}/fail",
                                {"worker_id": "w1", "error": error})
            assert err.value.status == 400
            assert "error must be a str" in str(err.value)
        row = paused_daemon.store.get(job["id"])
        assert (row.state, row.attempts, row.error) == (jobstore.RUNNING, 1, None)

    def test_an_undeclared_worker_field_is_400(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs/claim",
                            {"worker_id": "w1", "code": code_digest(), "lease": 60})
        assert err.value.status == 400
        assert "undeclared fields ['lease']" in str(err.value)
        assert paused_daemon.store.counts()[jobstore.RUNNING] == 0

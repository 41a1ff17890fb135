"""Distributed sweep fabric: leases, remote workers, auth, backpressure.

Covers the jobstore lease/heartbeat/reap protocol, the owner guards on
``finish``/``fail``/``requeue``, the worker loop's timeout handling, the
HTTP worker protocol end-to-end (a real :class:`Worker` over an
:class:`HttpSource` draining a daemon whose own worker is off), token
auth, queue-depth backpressure, per-client rate limiting, and a
hypothesis state machine asserting the store's invariants hold under
arbitrary operation interleavings.
"""

import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.service import jobstore
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon, StoreSource, TokenBucketLimiter
from repro.service.jobstore import JobStore
from repro.service.worker import HttpSource, Worker, _Running
from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.diskcache import DiskCache, cache_key
from repro.workloads import get_workload

OVERRIDES = {"ops_per_core": 200, "warmup_ops": 100}
CFG = bench_config(**OVERRIDES)


def key_for(workload: str, design: str) -> str:
    return cache_key(get_workload(workload), design, CFG)


def submit(store: JobStore, workload="lbm06", design="ideal", **kwargs):
    return store.submit(
        workload, design, key_for(workload, design), config=OVERRIDES, **kwargs
    )


def wait_for(condition, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def store(tmp_path):
    s = JobStore(tmp_path / "jobs.db")
    yield s
    s.close()


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.configure_disk_cache(enabled=False)
    yield
    runner.configure_disk_cache(enabled=False)


# -- jobstore: leases ----------------------------------------------------


class TestLeases:
    def test_claim_records_worker_and_lease(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert job.worker_id == "w1"
        assert job.lease_until == 130.0

    def test_leaseless_claim_is_never_reaped(self, store):
        submit(store)
        job = store.claim(worker_id="w1")
        assert job.lease_until is None
        assert store.reap_expired(now=time.time() + 10_000) == []

    def test_heartbeat_extends_lease(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert store.heartbeat(job.id, "w1", lease_seconds=30.0, now=120.0)
        assert store.get(job.id).lease_until == 150.0

    def test_heartbeat_owner_guarded(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert not store.heartbeat(job.id, "imposter", now=120.0)
        assert store.get(job.id).lease_until == 130.0

    def test_reap_requeues_expired_lease(self, store):
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=30.0)
        assert store.reap_expired(now=120.0) == []  # still live
        reaped = store.reap_expired(now=131.0)
        assert [j.id for j in reaped] == [job.id]
        assert reaped[0].worker_id == "w1"  # pre-reap view names the loser
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.worker_id is None
        assert back.lease_until is None
        assert back.started_at is None
        assert back.attempts == 1  # the lost claim still counts

    def test_reap_fails_terminally_on_last_attempt(self, store):
        submit(store, max_attempts=1)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=5.0)
        store.reap_expired(now=200.0)
        final = store.get(job.id)
        assert final.state == jobstore.FAILED
        assert "lease expired" in final.error
        assert "w1" in final.error

    def test_finish_owner_guarded(self, store):
        submit(store)
        job = store.claim(worker_id="w1", lease_seconds=30.0)
        assert not store.finish(job.id, "executed", worker_id="imposter")
        assert store.get(job.id).state == jobstore.RUNNING
        assert store.finish(job.id, "executed", worker_id="w1")
        assert store.get(job.id).state == jobstore.DONE

    def test_fail_owner_guarded(self, store):
        submit(store)
        job = store.claim(worker_id="w1", lease_seconds=30.0)
        assert not store.fail(job.id, "boom", worker_id="imposter")
        assert store.get(job.id).state == jobstore.RUNNING
        assert store.fail(job.id, "boom", worker_id="w1")
        assert store.get(job.id).state == jobstore.FAILED

    def test_reaped_worker_cannot_clobber_new_owner(self, store):
        # w1's lease expires; the job is re-leased to w2; w1's late
        # finish must not override w2's ownership.
        submit(store)
        job = store.claim(now=100.0, worker_id="w1", lease_seconds=10.0)
        store.reap_expired(now=200.0)
        retry = store.claim(now=200.0, worker_id="w2", lease_seconds=10.0)
        assert retry.id == job.id and retry.worker_id == "w2"
        assert not store.finish(job.id, "executed", worker_id="w1")
        assert store.get(job.id).state == jobstore.RUNNING
        assert store.finish(job.id, "executed", worker_id="w2")

    def test_release_owner_guarded(self, store, tmp_path):
        # The local worker's lease is reaped and the job re-leased to w2:
        # the local worker's drain must not hand w2's job back.
        submit(store)
        worker = make_timeout_scheduler(store, tmp_path)
        job, _ = claim_inflight(store, worker)
        store.reap_expired(now=time.time() + 2 * worker.lease_seconds)
        assert store.claim(worker_id="w2", lease_seconds=30.0).id == job.id
        assert not store.requeue(job.id, refund_attempt=True,
                                 worker_id=worker.worker_id)
        worker.drain_seconds = 0.0
        worker._drain()
        row = store.get(job.id)
        assert row.state == jobstore.RUNNING and row.worker_id == "w2"
        assert row.attempts == 2
        assert worker.stats.drain_requeued == 0

    def test_boot_recovery_spares_leased_rows(self, store):
        # A leased row may belong to a live remote worker: boot-time
        # recovery must leave it to the reaper.
        submit(store, "lbm06", "ideal")
        submit(store, "mcf06", "ideal")
        leased = store.claim(worker_id="remote", lease_seconds=300.0)
        legacy = store.claim(worker_id="old-daemon")  # no lease
        recovered = store.recover_orphans(only_leaseless=True)
        assert [j.id for j in recovered] == [legacy.id]
        assert store.get(leased.id).state == jobstore.RUNNING
        # full (legacy) recovery still takes everything
        assert len(store.recover_orphans()) == 1

    def test_old_database_schema_is_migrated(self, tmp_path):
        import sqlite3

        # A pre-lease database: same table minus the two new columns.
        db = tmp_path / "old.db"
        conn = sqlite3.connect(db)
        conn.executescript(
            """
            CREATE TABLE jobs (
                id TEXT PRIMARY KEY, key TEXT NOT NULL,
                workload TEXT NOT NULL, design TEXT NOT NULL,
                config_json TEXT NOT NULL,
                priority INTEGER NOT NULL DEFAULT 0, state TEXT NOT NULL,
                attempts INTEGER NOT NULL DEFAULT 0,
                max_attempts INTEGER NOT NULL DEFAULT 3,
                timeout REAL, not_before REAL NOT NULL DEFAULT 0,
                source TEXT, error TEXT, created_at REAL NOT NULL,
                updated_at REAL NOT NULL, started_at REAL, finished_at REAL
            );
            INSERT INTO jobs VALUES ('j1', 'k1', 'lbm06', 'ideal', '{}',
                0, 'queued', 0, 3, NULL, 0, NULL, NULL, 1.0, 1.0, NULL, NULL);
            """
        )
        conn.commit()
        conn.close()
        upgraded = JobStore(db)
        try:
            job = upgraded.get("j1")
            assert job.worker_id is None and job.lease_until is None
            claimed = upgraded.claim(worker_id="w1", lease_seconds=5.0)
            assert claimed.id == "j1" and claimed.worker_id == "w1"
        finally:
            upgraded.close()


# -- jobstore: satellite bug fixes ---------------------------------------


class TestJobStoreFixes:
    def test_find_escapes_like_wildcards(self, store):
        job, _ = submit(store)
        assert store.find(job.id[:8]).id == job.id
        # '%' and '_' are literals in a prefix, not LIKE wildcards —
        # they can never appear in a uuid id, so they must match nothing.
        with pytest.raises(KeyError):
            store.find("%")
        with pytest.raises(KeyError):
            store.find("________")
        with pytest.raises(KeyError):
            store.find(job.id[:4] + "%")

    def test_dedup_join_raises_priority(self, store):
        low, created = submit(store, priority=1)
        assert created
        joined, created2 = submit(store, priority=5)
        assert not created2 and joined.id == low.id
        assert joined.priority == 5
        # a lower-priority join never demotes the surviving row
        again, _ = submit(store, priority=0)
        assert again.priority == 5

    def test_dedup_priority_raise_changes_claim_order(self, store):
        first, _ = submit(store, "lbm06", "ideal", priority=0)
        other, _ = submit(store, "mcf06", "ideal", priority=3)
        submit(store, "lbm06", "ideal", priority=9)  # join + raise
        assert store.claim().id == first.id
        assert store.claim().id == other.id

    def test_retrying_fail_clears_claim_bookkeeping(self, store):
        submit(store)
        job = store.claim(worker_id="w1", lease_seconds=30.0)
        assert store.fail(job.id, "boom", retry_delay=0.0)
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.started_at is None
        assert back.worker_id is None
        assert back.lease_until is None
        # and the re-claim starts a fresh lease, not a stale one
        retry = store.claim(now=time.time() + 1.0, worker_id="w2",
                            lease_seconds=30.0)
        assert retry.id == job.id and retry.started_at is not None


# -- worker loop: timeout handling ---------------------------------------


class _FakePool:
    """Stands in for ProcessPoolExecutor in timeout unit tests.

    Like a real pool whose processes were killed, shutting it down fails
    every future it ran that had not finished yet.
    """

    def __init__(self):
        self._processes = {}
        self.futures = []
        self.killed = False

    def shutdown(self, wait=False, cancel_futures=False):
        self.killed = True
        for future in self.futures:
            if not future.done():
                future.set_exception(BrokenProcessPool("pool killed"))


def make_timeout_scheduler(store, tmp_path):
    """The daemon's own worker loop, over a fake pool."""
    scheduler = Worker(
        StoreSource(store, backoff_base=0.01), worker_id="local",
        concurrency=2, cache_dir=str(tmp_path / "simcache"),
    )
    scheduler._pool = _FakePool()
    scheduler._new_pool = _FakePool  # rebuilt pools are fakes too
    return scheduler


def claim_inflight(store, scheduler, deadline=None):
    """Claim one job as the loop would and plant a fake future.

    ``deadline`` is on the loop's clock, :func:`time.monotonic`.
    """
    job = store.claim(worker_id=scheduler.worker_id,
                      lease_seconds=scheduler.lease_seconds)
    future = Future()
    future.set_running_or_notify_cancel()
    scheduler._pool.futures.append(future)
    scheduler._inflight[job.id] = _Running(
        job, future, deadline=deadline,
        renew_at=time.monotonic() + scheduler.lease_seconds,
    )
    return job, future


class TestSchedulerTimeouts:
    def test_completed_future_is_spared_from_timeout(self, store, tmp_path):
        # The job's deadline passed, but its future finished between the
        # deadline check and the kill: harvest it, don't kill the pool.
        submit(store)
        scheduler = make_timeout_scheduler(store, tmp_path)
        pool = scheduler._pool
        job, future = claim_inflight(store, scheduler,
                                     deadline=time.monotonic() - 1.0)
        future.set_result((None, "executed", 0.01, (0, 0), 0.0))
        assert scheduler._harvest()  # harvests, no timeout declared
        assert not pool.killed
        assert scheduler.stats.timeouts == 0
        assert scheduler.stats.completed == 1
        assert store.get(job.id).state == jobstore.DONE

    def test_every_expired_job_is_reaped_in_one_pass(self, store, tmp_path):
        # Two jobs past their deadline in the same pass: both must be
        # failed, not just the last one the loop happened to remember.
        submit(store, "lbm06", "ideal", max_attempts=1)
        submit(store, "mcf06", "ideal", max_attempts=1)
        scheduler = make_timeout_scheduler(store, tmp_path)
        pool = scheduler._pool
        a, _ = claim_inflight(store, scheduler, deadline=time.monotonic() - 1.0)
        b, _ = claim_inflight(store, scheduler, deadline=time.monotonic() - 1.0)
        assert scheduler._harvest()
        assert pool.killed
        assert scheduler.stats.timeouts == 2
        assert store.get(a.id).state == jobstore.FAILED
        assert store.get(b.id).state == jobstore.FAILED
        assert scheduler._inflight == {}

    def test_done_bystander_survives_pool_kill(self, store, tmp_path):
        # One genuinely stuck job forces a pool kill; a bystander whose
        # future already completed must be harvested afterwards, and a
        # pending bystander re-queued with its attempt refunded.
        submit(store, "lbm06", "ideal", max_attempts=1)
        submit(store, "mcf06", "ideal")
        submit(store, "xz17", "ideal")
        scheduler = make_timeout_scheduler(store, tmp_path)
        stuck, _ = claim_inflight(store, scheduler,
                                  deadline=time.monotonic() - 1.0)
        done_by, done_future = claim_inflight(store, scheduler)
        pending_by, _ = claim_inflight(store, scheduler)
        done_future.set_result((None, "executed", 0.01, (0, 0), 0.0))
        # _harvest settles the done bystander first (it is simply done),
        # then handles the expired job; drive _on_timeout directly to
        # model the done-after-deadline-check interleaving.
        expired = [scheduler._inflight[stuck.id]]
        assert scheduler._on_timeout(expired)
        assert store.get(stuck.id).state == jobstore.FAILED
        # done bystander: still in flight, harvested on the next pass
        assert done_by.id in scheduler._inflight
        assert scheduler._harvest()
        assert store.get(done_by.id).state == jobstore.DONE
        # pending bystander: requeued with the claim refunded
        back = store.get(pending_by.id)
        assert back.state == jobstore.QUEUED
        assert back.attempts == 0


# -- HTTP surface: worker protocol, auth, backpressure -------------------


def make_daemon(tmp_path, run_scheduler=False, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("drain_seconds", 30.0)
    daemon = ServiceDaemon(
        db_path=tmp_path / "service.db",
        cache_dir=tmp_path / "simcache",
        trace_dir=tmp_path / "traces",
        host="127.0.0.1",
        port=0,
        **kwargs,
    )
    daemon.start(run_scheduler=run_scheduler)
    return daemon


@pytest.fixture
def paused_daemon(tmp_path):
    """HTTP + reaper up, local scheduler off: only remote workers drain."""
    d = make_daemon(tmp_path)
    yield d
    d.stop()


def comparable(result) -> dict:
    payload = result.to_json_dict()
    payload["extras"].pop("sim_seconds", None)  # wall time is not identity
    return payload


class TestWorkerProtocolHttp:
    def test_claim_heartbeat_upload_round_trip(self, paused_daemon, tmp_path):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        claimed = client.claim("w1", lease_seconds=60.0)
        assert claimed["id"] == job["id"]
        assert claimed["worker_id"] == "w1"
        assert claimed["lease_until"] is not None
        assert client.claim("w1") is None  # queue drained
        renewed = client.heartbeat(job["id"], "w1", lease_seconds=120.0)
        assert renewed["lease_until"] > claimed["lease_until"]
        result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        done = client.upload_result(job["id"], "w1", result, source="remote")
        assert done["state"] == jobstore.DONE
        assert done["source"] == "remote"
        # the daemon replicated the payload into its own cache
        assert comparable(client.result(job["id"])) == comparable(result)
        assert DiskCache(tmp_path / "simcache").get(claimed["key"]) is not None

    def test_heartbeat_conflicts_for_wrong_worker(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1", lease_seconds=60.0)
        with pytest.raises(ServiceError) as err:
            client.heartbeat(job["id"], "imposter")
        assert err.value.status == 409

    def test_upload_after_reap_conflicts(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1", lease_seconds=60.0)
        paused_daemon.store.reap_expired(now=time.time() + 120.0)
        result = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        with pytest.raises(ServiceError) as err:
            client.upload_result(job["id"], "w1", result)
        assert err.value.status == 409

    def test_remote_fail_applies_retry_policy(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=200, warmup=100)
        client.claim("w1", lease_seconds=60.0)
        failed = client.fail_job(job["id"], "w1", "worker exploded")
        assert failed["state"] == jobstore.QUEUED  # attempts left: retry
        assert failed["error"] == "worker exploded"
        assert paused_daemon.stats.retried == 1

    def test_claim_requires_worker_id(self, paused_daemon):
        with pytest.raises(ServiceError) as err:
            ServiceClient(paused_daemon.url)._request(
                "POST", "/jobs/claim", {"lease_seconds": 5.0}
            )
        assert err.value.status == 400

    def test_expired_lease_requeues_via_reaper_thread(self, tmp_path):
        daemon = make_daemon(tmp_path, lease_seconds=0.1, reaper_interval=0.02)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=200, warmup=100)
            claimed = client.claim("w-dead")  # claims, then "crashes"
            assert claimed["id"] == job["id"]
            assert wait_for(
                lambda: daemon.store.get(job["id"]).state == jobstore.QUEUED,
                timeout=10,
            )
            metrics = daemon.metrics()
            assert metrics["worker.lease_expirations"] >= 1
        finally:
            daemon.stop()


class TestAuth:
    def test_mutating_requests_require_token(self, tmp_path):
        daemon = make_daemon(tmp_path, token="sekrit")
        try:
            anon = ServiceClient(daemon.url, token="")
            with pytest.raises(ServiceError) as err:
                anon.submit("lbm06", "ideal", ops=200, warmup=100)
            assert err.value.status == 401
            with pytest.raises(ServiceError) as err:
                anon.claim("w1")
            assert err.value.status == 401
            wrong = ServiceClient(daemon.url, token="not-sekrit")
            with pytest.raises(ServiceError) as err:
                wrong.submit("lbm06", "ideal", ops=200, warmup=100)
            assert err.value.status == 401
        finally:
            daemon.stop()

    def test_reads_stay_open_and_token_unlocks_writes(self, tmp_path):
        daemon = make_daemon(tmp_path, token="sekrit")
        try:
            authed = ServiceClient(daemon.url, token="sekrit")
            job = authed.submit("lbm06", "ideal", ops=200, warmup=100)
            assert job["created"]
            anon = ServiceClient(daemon.url, token="")
            assert anon.healthz()["auth"] is True
            assert len(anon.jobs()) == 1  # GETs need no secret
        finally:
            daemon.stop()

    def test_token_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "env-secret")
        daemon = make_daemon(tmp_path)  # picks the token up from the env
        try:
            assert daemon.token == "env-secret"
            client = ServiceClient(daemon.url)  # client does too
            assert client.submit("lbm06", "ideal", ops=200, warmup=100)
        finally:
            daemon.stop()


class TestBackpressure:
    def test_queue_full_rejects_new_submissions(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queued=1)
        try:
            client = ServiceClient(daemon.url)
            first = client.submit("lbm06", "ideal", ops=200, warmup=100)
            with pytest.raises(ServiceError) as err:
                client.submit("mcf06", "ideal", ops=200, warmup=100)
            assert err.value.status == 429
            assert err.value.retry_after is not None
            # joining an existing identity is not a new row: never rejected
            joined = client.submit("lbm06", "ideal", ops=200, warmup=100)
            assert joined["id"] == first["id"]
        finally:
            daemon.stop()

    def test_rate_limit_throttles_per_client(self, tmp_path):
        daemon = make_daemon(tmp_path, rate_limit=0.001, rate_burst=2.0)
        try:
            client = ServiceClient(daemon.url)
            client.submit("lbm06", "ideal", ops=200, warmup=100)
            client.jobs()
            with pytest.raises(ServiceError) as err:
                client.jobs()
            assert err.value.status == 429
            assert err.value.retry_after > 0
            assert client.healthz()["ok"]  # health stays scrapeable
        finally:
            daemon.stop()

    def test_token_bucket_refills(self):
        limiter = TokenBucketLimiter(rate=2.0, burst=1.0)
        ok, _ = limiter.allow("c", now=0.0)
        assert ok
        ok, retry_after = limiter.allow("c", now=0.0)
        assert not ok and retry_after > 0
        ok, _ = limiter.allow("c", now=0.6)  # 0.6s * 2/s > 1 token
        assert ok
        ok, _ = limiter.allow("other", now=0.0)  # separate bucket
        assert ok


# -- remote worker (Worker over HttpSource) end-to-end -------------------


def make_worker(daemon, tmp_path, name="w1", token=None, **kwargs):
    kwargs.setdefault("concurrency", 2)
    kwargs.setdefault("lease_seconds", 30.0)
    kwargs.setdefault("poll_interval", 0.02)
    return Worker(
        HttpSource(ServiceClient(daemon.url, token=token)),
        worker_id=name,
        cache_dir=str(tmp_path / f"{name}-cache"),
        trace_dir=str(tmp_path / "traces"),
        **kwargs,
    )


class TestRemoteWorker:
    def test_worker_drains_queue_with_identical_results(
        self, paused_daemon, tmp_path
    ):
        client = ServiceClient(paused_daemon.url)
        specs = [("lbm06", "ideal"), ("mcf06", "ideal"),
                 ("lbm06", "uncompressed")]
        jobs = [client.submit(w, d, ops=200, warmup=100) for w, d in specs]
        stats = make_worker(paused_daemon, tmp_path, max_jobs=3).run()
        assert stats.completed == 3
        assert stats.failed == 0 and stats.lease_lost == 0
        for (workload, design), job in zip(specs, jobs):
            done = client.job(job["id"])
            assert done["state"] == jobstore.DONE
            assert done["source"] in ("remote", "disk", "executed")
            direct = runner.simulate(workload, design, CFG, use_cache=False)
            assert comparable(client.result(job["id"])) == comparable(direct)
        # telemetry: the daemon tracked the worker and its completions
        metrics = paused_daemon.metrics()
        assert metrics["worker.completed.w1"] == 3
        assert paused_daemon.workers_seen.completions() == {"w1": 3}

    def test_two_workers_split_one_sweep(self, paused_daemon, tmp_path):
        client = ServiceClient(paused_daemon.url)
        specs = [(w, d) for w in ("lbm06", "mcf06", "xz17")
                 for d in ("ideal", "uncompressed")]
        jobs = [client.submit(w, d, ops=200, warmup=100) for w, d in specs]
        workers = [
            make_worker(paused_daemon, tmp_path, name=f"w{i}", max_jobs=None)
            for i in (1, 2)
        ]
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        try:
            assert wait_for(
                lambda: all(
                    paused_daemon.store.get(j["id"]).terminal for j in jobs
                ),
                timeout=120,
            )
        finally:
            for worker in workers:
                worker.request_stop()
            for thread in threads:
                thread.join(60)
        states = [paused_daemon.store.get(j["id"]).state for j in jobs]
        assert states == [jobstore.DONE] * len(jobs)
        total = sum(w.stats.completed for w in workers)
        assert total == len(jobs)

    def test_worker_reports_execution_failure(self, paused_daemon, tmp_path):
        # An unbuildable design passes submit-side validation only if
        # injected directly — the worker must fail it back upstream.
        job, _ = paused_daemon.store.submit(
            "lbm06", "warp_drive", "k-bad", config=OVERRIDES, max_attempts=1
        )
        stats = make_worker(paused_daemon, tmp_path, max_jobs=1).run()
        assert stats.failed == 1 and stats.completed == 0
        final = paused_daemon.store.get(job.id)
        assert final.state == jobstore.FAILED
        assert final.error

    def test_worker_without_token_cannot_claim(self, tmp_path):
        daemon = make_daemon(tmp_path, token="sekrit")
        try:
            ServiceClient(daemon.url, token="sekrit").submit(
                "lbm06", "ideal", ops=200, warmup=100
            )
            worker = make_worker(daemon, tmp_path, token="")
            # one claim pass: the 401 is swallowed (logged) and nothing
            # is claimed, so the job stays queued for an authed worker
            assert worker._claim() is False
            assert worker.stats.claimed == 0
            assert daemon.store.counts()[jobstore.QUEUED] == 1
        finally:
            daemon.stop()


# -- jobstore state machine (property test) ------------------------------


class JobStoreMachine(RuleBasedStateMachine):
    """Random claim/heartbeat/fail/finish/reap interleavings.

    Invariants after every step: at most one active job per key (the
    dedup index), queued rows carry no claim bookkeeping, running rows
    always record a claim, and terminal rows never change state again.
    """

    KEYS = ("k1", "k2", "k3")
    WORKERS = ("wa", "wb")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="repro-jobstore-prop-")
        self.store = JobStore(Path(self.dir) / "jobs.db")
        self.now = time.time()
        self.terminal_states = {}

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _running(self):
        return self.store.list_jobs(state=jobstore.RUNNING, limit=10)

    @rule(key=st.sampled_from(KEYS), priority=st.integers(0, 5))
    def submit(self, key, priority):
        self.store.submit(
            "lbm06", "ideal", key, config={}, priority=priority, max_attempts=3
        )

    @rule(worker=st.sampled_from(WORKERS),
          lease=st.sampled_from([None, 5.0]))
    def claim(self, worker, lease):
        self.store.claim(now=self.now, worker_id=worker, lease_seconds=lease)

    @rule(worker=st.sampled_from(WORKERS))
    def heartbeat(self, worker):
        for job in self._running():
            self.store.heartbeat(job.id, worker, 5.0, now=self.now)

    @rule(worker=st.sampled_from(WORKERS), retry=st.booleans())
    def fail(self, worker, retry):
        for job in self._running():
            delay = 1.0 if (retry and job.attempts < job.max_attempts) else None
            self.store.fail(job.id, "boom", retry_delay=delay, worker_id=worker)
            break

    @rule(worker=st.sampled_from(WORKERS))
    def finish(self, worker):
        for job in self._running():
            self.store.finish(job.id, "executed", worker_id=worker)
            break

    @rule()
    def cancel(self):
        for job in self.store.list_jobs(state=jobstore.QUEUED, limit=1):
            self.store.cancel(job.id)

    @rule(worker=st.sampled_from(WORKERS))
    def requeue(self, worker):
        for job in self._running():
            self.store.requeue(job.id, refund_attempt=True, worker_id=worker)
            break

    @rule(dt=st.sampled_from([0.5, 3.0, 10.0]))
    def advance_and_reap(self, dt):
        self.now += dt
        self.store.reap_expired(now=self.now)

    @rule()
    def boot_recovery(self):
        self.store.recover_orphans(only_leaseless=True)

    @invariant()
    def store_is_consistent(self):
        jobs = self.store.list_jobs(limit=1000)
        active_keys = [j.key for j in jobs if j.state in jobstore.ACTIVE_STATES]
        assert len(active_keys) == len(set(active_keys)), (
            "dedup violated: two active jobs share a key"
        )
        for job in jobs:
            assert job.state in jobstore.STATES
            if job.state == jobstore.QUEUED:
                assert job.worker_id is None
                assert job.lease_until is None
                assert job.started_at is None
            if job.state == jobstore.RUNNING:
                assert job.attempts >= 1
                assert job.started_at is not None
                assert job.worker_id is not None
            if job.terminal:
                previous = self.terminal_states.setdefault(job.id, job.state)
                assert previous == job.state, (
                    f"terminal job {job.id} moved {previous} -> {job.state}"
                )
                assert job.finished_at is not None


JobStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestJobStoreStateMachine = JobStoreMachine.TestCase

"""Unit tests for the job-queue service: store, worker loop, policies.

The HTTP surface is covered end-to-end in ``test_service_http.py``;
here the store and the worker loop over it (``TestScheduler``: the
daemon's own pool) are exercised directly, including the retry/backoff
policy, crash-orphan recovery, and the graceful-drain guarantee (no
``running`` rows after a stop).
"""

import threading
import time

import pytest

from repro.service import jobstore
from repro.service.jobstore import JobStore
from repro.service.daemon import ServiceDaemon, ServiceStats, StoreSource
from repro.service.worker import Worker
from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.diskcache import DiskCache, cache_key
from repro.workloads import get_workload

#: Small but real simulation scale (matches the CLI tests).
OVERRIDES = {"ops_per_core": 200, "warmup_ops": 100}
CFG = bench_config(**OVERRIDES)


def key_for(workload: str, design: str) -> str:
    return cache_key(get_workload(workload), design, CFG)


def submit(store: JobStore, workload="lbm06", design="ideal", **kwargs):
    job, created = store.submit(
        workload, design, key_for(workload, design), config=OVERRIDES, **kwargs
    )
    return job, created


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


class TestJobStore:
    def test_submit_round_trip(self, store):
        job, created = submit(store, priority=3)
        assert created
        assert job.state == jobstore.QUEUED
        assert job.attempts == 0
        assert job.priority == 3
        assert job.config == OVERRIDES
        assert store.get(job.id).id == job.id

    def test_dedup_on_active_key(self, store):
        first, created = submit(store)
        second, created2 = submit(store)
        assert created and not created2
        assert second.id == first.id
        assert store.counts()[jobstore.QUEUED] == 1

    def test_terminal_job_frees_the_dedup_slot(self, store):
        first, _ = submit(store)
        claimed = store.claim()
        store.finish(claimed.id, "executed")
        second, created = submit(store)
        assert created
        assert second.id != first.id

    def test_claim_order_priority_then_fifo(self, store):
        low, _ = submit(store, "lbm06", "ideal", priority=0)
        high, _ = submit(store, "mcf06", "ideal", priority=5)
        low2, _ = submit(store, "lbm06", "static_ptmc", priority=0)
        order = [store.claim().id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]
        assert store.claim() is None

    def test_claim_marks_running_and_counts_attempt(self, store):
        submit(store)
        job = store.claim()
        assert job.state == jobstore.RUNNING
        assert job.attempts == 1
        assert job.started_at is not None

    def test_backoff_gates_reclaim(self, store):
        submit(store)
        job = store.claim()
        store.fail(job.id, "boom", retry_delay=60.0)
        assert store.get(job.id).state == jobstore.QUEUED
        assert store.claim() is None  # not_before is in the future
        retry = store.claim(now=time.time() + 61.0)
        assert retry is not None and retry.id == job.id
        assert retry.attempts == 2

    def test_fail_terminal_records_error(self, store):
        submit(store)
        job = store.claim()
        store.fail(job.id, "no retry left")
        final = store.get(job.id)
        assert final.state == jobstore.FAILED
        assert final.error == "no retry left"
        assert final.finished_at is not None

    def test_cancel_only_queued(self, store):
        job, _ = submit(store)
        assert store.cancel(job.id)
        assert store.get(job.id).state == jobstore.CANCELLED
        job2, _ = submit(store, "mcf06")
        running = store.claim()
        assert running.id == job2.id
        assert not store.cancel(job2.id)
        assert store.get(job2.id).state == jobstore.RUNNING

    def test_recover_orphans_requeues_without_refund(self, store):
        submit(store)
        store.claim()
        orphans = store.recover_orphans()
        assert len(orphans) == 1
        job = store.get(orphans[0].id)
        assert job.state == jobstore.QUEUED
        assert job.attempts == 1  # the crashed claim still counts
        assert job.started_at is None

    def test_requeue_with_refund(self, store):
        submit(store)
        job = store.claim()
        store.requeue(job.id, refund_attempt=True)
        back = store.get(job.id)
        assert back.state == jobstore.QUEUED
        assert back.attempts == 0

    def test_persistence_across_reopen(self, store, tmp_path):
        job, _ = submit(store)
        store.close()
        reopened = JobStore(tmp_path / "jobs.db")
        try:
            assert reopened.get(job.id).workload == "lbm06"
            assert reopened.counts()[jobstore.QUEUED] == 1
        finally:
            reopened.close()

    def test_find_by_prefix(self, store):
        job, _ = submit(store)
        assert store.find(job.id[:8]).id == job.id
        with pytest.raises(KeyError):
            store.find("nonexistent")

    def test_submitted_done_jobs_need_no_claim(self, store):
        job, created = store.submit(
            "lbm06", "ideal", "somekey", state=jobstore.DONE, source="cache"
        )
        assert created and job.state == jobstore.DONE
        assert job.source == "cache"
        assert store.claim() is None


def make_scheduler(store, tmp_path, **kwargs):
    """The daemon's own pool: a :class:`Worker` over a :class:`StoreSource`."""
    kwargs.setdefault("concurrency", 1)
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("drain_seconds", 60.0)
    source = StoreSource(store, backoff_base=kwargs.pop("backoff_base", 0.01))
    return Worker(
        source, worker_id="local", cache_dir=str(tmp_path / "simcache"), **kwargs
    )


def run_in_thread(scheduler):
    thread = threading.Thread(target=scheduler.run, daemon=True)
    thread.start()
    return thread


def stop_and_join(scheduler, thread, timeout=60.0):
    scheduler.request_stop()
    thread.join(timeout)
    assert not thread.is_alive(), "scheduler failed to drain in time"


class TestScheduler:
    def test_executes_job_and_writes_shared_cache(self, store, tmp_path):
        job, _ = submit(store)
        scheduler = make_scheduler(store, tmp_path)
        thread = run_in_thread(scheduler)
        try:
            assert wait_for(lambda: store.get(job.id).terminal)
        finally:
            stop_and_join(scheduler, thread)
        done = store.get(job.id)
        assert done.state == jobstore.DONE
        assert done.source == "executed"
        cached = DiskCache(tmp_path / "simcache").get(job.key)
        assert cached is not None
        direct = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        a, b = cached.to_json_dict(), direct.to_json_dict()
        a["extras"].pop("sim_seconds"), b["extras"].pop("sim_seconds")
        assert a == b
        assert scheduler.stats.completed == 1

    def test_unknown_workload_fails_terminally(self, store, tmp_path):
        job, _ = store.submit("no_such_workload", "ideal", "k1", config={})
        scheduler = make_scheduler(store, tmp_path)
        thread = run_in_thread(scheduler)
        try:
            assert wait_for(lambda: store.get(job.id).terminal, timeout=30)
        finally:
            stop_and_join(scheduler, thread)
        failed = store.get(job.id)
        assert failed.state == jobstore.FAILED
        assert "unknown workload" in failed.error
        assert scheduler.stats.failed == 1
        assert scheduler.stats.retried == 0

    def test_worker_error_retries_then_fails(self, store, tmp_path):
        # A design the simulator cannot build fails inside the worker,
        # exercising the retry/backoff path rather than dispatch validation.
        job, _ = store.submit(
            "lbm06", "warp_drive", "k2", config=OVERRIDES, max_attempts=2
        )
        scheduler = make_scheduler(store, tmp_path)
        thread = run_in_thread(scheduler)
        try:
            assert wait_for(lambda: store.get(job.id).terminal)
        finally:
            stop_and_join(scheduler, thread)
        failed = store.get(job.id)
        assert failed.state == jobstore.FAILED
        assert failed.attempts == 2
        assert scheduler.stats.retried == 1
        assert scheduler.stats.failed == 1

    def test_orphan_recovery_completes_job(self, store, tmp_path):
        # Boot-time recovery belongs to the daemon, which owns the store.
        job, _ = submit(store)
        store.claim()  # a previous daemon "crashed" holding this job
        assert store.counts()[jobstore.RUNNING] == 1
        daemon = ServiceDaemon(
            db_path=store.path, cache_dir=tmp_path / "simcache", port=0, workers=1
        )
        daemon.start()
        try:
            assert wait_for(lambda: store.get(job.id).terminal)
        finally:
            daemon.stop()
        assert daemon.stats.orphans_recovered == 1
        assert store.get(job.id).state == jobstore.DONE

    def test_graceful_drain_leaves_no_running_rows(self, store, tmp_path):
        # Enough work that a stop request lands mid-batch.
        for workload in ("lbm06", "mcf06", "xz17"):
            for design in ("ideal", "uncompressed"):
                submit(store, workload, design)
        scheduler = make_scheduler(store, tmp_path, concurrency=2)
        thread = run_in_thread(scheduler)
        wait_for(lambda: scheduler.inflight > 0, timeout=30)
        stop_and_join(scheduler, thread)
        counts = store.counts()
        assert counts[jobstore.RUNNING] == 0
        # every job either finished or went back to the queue intact
        for job in store.list_jobs():
            assert job.state in (jobstore.DONE, jobstore.QUEUED)
            if job.state == jobstore.QUEUED:
                assert job.attempts == 0  # drained claims are refunded

    def test_timeout_fails_job_with_deadline_error(self, store, tmp_path):
        slow = {"ops_per_core": 60_000, "warmup_ops": 30_000}
        slow_key = cache_key(get_workload("lbm06"), "ideal", bench_config(**slow))
        job, _ = store.submit(
            "lbm06", "ideal", slow_key, config=slow, max_attempts=1, timeout=0.05
        )
        scheduler = make_scheduler(store, tmp_path)
        thread = run_in_thread(scheduler)
        try:
            assert wait_for(lambda: store.get(job.id).terminal, timeout=60)
        finally:
            stop_and_join(scheduler, thread)
        failed = store.get(job.id)
        assert failed.state == jobstore.FAILED
        assert "timeout" in failed.error
        assert scheduler.stats.timeouts >= 1


class TestServiceStatsRegistry:
    def test_counters_and_queue_depth_registered(self, store, tmp_path):
        from repro.telemetry import StatRegistry

        stats = ServiceStats()
        registry = StatRegistry()
        stats.register_stats(registry.scope("service"), store)
        submit(store)
        stats.completed += 2
        metrics = registry.delta()
        assert metrics["service.queue_depth"] == 1
        assert metrics["service.completed"] == 2
        assert metrics["service.running"] == 0

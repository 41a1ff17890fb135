"""The worker loop wakes on events, not on its poll timer, on both sources.

Every worker here idles on a 30 s ``poll_interval``, so a job that
completes within a few seconds proves the loop was woken: by the
submission that queued it, by the pool future that finished it, or by
``request_stop``.  A loop that only polled would sleep out the 30 s.
The daemon's own worker runs over a ``StoreSource``; ``repro worker``
runs the same loop over an ``HttpSource``, whose tests are the
``test_remote_*`` ones: nothing can announce a new job to a remote
worker, but completions, stops, lease renewals and deadlines must not
wait for its poll timer either.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service import jobstore
from repro.service.client import ServiceClient
from repro.service.daemon import StoreSource
from repro.service.jobstore import JobStore
from repro.service.worker import TIMEOUT_ERROR, HttpSource, Worker
from repro.sim import runner
from tests.test_service import submit, wait_for
from tests.test_service_http import OPS, WARMUP, make_daemon

#: far longer than any test below may take
IDLE_POLL_S = 30.0
#: a tiny job is dispatched, run and harvested well within this
PROMPT_S = 10.0
#: far longer than any test below lets a job run
SLOW_OPS = 150_000


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.configure_disk_cache(enabled=False)
    yield
    runner.configure_disk_cache(enabled=False)


@pytest.fixture
def paused_daemon(tmp_path):
    """HTTP up, the daemon's own worker off: only remote workers run jobs."""
    daemon = make_daemon(tmp_path, run_scheduler=False, reaper_interval=0.05)
    yield daemon
    daemon.stop()


def local_worker(store: JobStore, tmp_path) -> Worker:
    return Worker(
        StoreSource(store), worker_id="local", cache_dir=str(tmp_path / "simcache")
    )


def remote_worker(daemon, tmp_path, **kwargs) -> Worker:
    return Worker(
        HttpSource(ServiceClient(daemon.url)),
        worker_id="remote",
        cache_dir=str(tmp_path / "remote-cache"),
        **kwargs,
    )


def start_idle(worker: Worker) -> threading.Thread:
    """Run ``worker`` on a thread and let it settle into its idle sleep."""
    worker.poll_interval = IDLE_POLL_S
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    time.sleep(0.5)
    return thread


def stop_within(worker: Worker, thread: threading.Thread, seconds: float):
    worker.request_stop()
    thread.join(seconds)
    assert not thread.is_alive(), f"worker still running {seconds} s after stop"


def alive(pid: int) -> bool:
    """``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWakeups:
    def test_submission_to_idle_loop_runs_promptly(self, tmp_path):
        # POST /jobs wakes the loop to dispatch; the finished future
        # wakes it again to harvest.
        daemon = make_daemon(tmp_path, run_scheduler=False, workers=1)
        thread = start_idle(daemon.worker)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
            assert job["state"] == jobstore.QUEUED
            done = client.wait(job["id"], timeout=PROMPT_S, poll=0.02)
            assert done["state"] == jobstore.DONE
            assert done["source"] == "executed"
        finally:
            stop_within(daemon.worker, thread, PROMPT_S)
            daemon.stop()

    def test_finished_future_wakes_idle_loop(self, tmp_path):
        # Queued before the loop starts, so its first pass dispatches it
        # without any wake-up; only the completion can end the sleep.
        store = JobStore(tmp_path / "jobs.db")
        job, _ = submit(store)
        worker = local_worker(store, tmp_path)
        thread = start_idle(worker)
        try:
            assert wait_for(lambda: store.get(job.id).terminal, timeout=PROMPT_S)
            assert store.get(job.id).state == jobstore.DONE
        finally:
            stop_within(worker, thread, PROMPT_S)
            store.close()

    def test_wakeup_during_a_pass_is_not_lost(self, tmp_path, monkeypatch):
        # A submission that lands after the pass's claim but before its
        # sleep must end that sleep: wake-ups are dropped before a pass,
        # never after it.
        store = JobStore(tmp_path / "jobs.db")
        worker = local_worker(store, tmp_path)
        submitted = []
        renew = worker._renew

        def renew_then_submit():
            renew()
            if not submitted and worker.inflight == 0:
                submitted.append(submit(store)[0])
                worker.notify()

        monkeypatch.setattr(worker, "_renew", renew_then_submit)
        thread = start_idle(worker)
        try:
            assert wait_for(lambda: submitted, timeout=PROMPT_S), "no pass ran"
            job = submitted[0]
            assert wait_for(lambda: store.get(job.id).terminal, timeout=PROMPT_S)
            assert store.get(job.id).state == jobstore.DONE
        finally:
            stop_within(worker, thread, PROMPT_S)
            store.close()

    def test_stop_wakes_idle_loop(self, tmp_path):
        daemon = make_daemon(tmp_path, run_scheduler=False)
        thread = start_idle(daemon.worker)
        try:
            stop_within(daemon.worker, thread, 1.0)
        finally:
            daemon.stop()

    def test_remote_finished_future_wakes_idle_loop(self, paused_daemon, tmp_path):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        worker = remote_worker(paused_daemon, tmp_path)
        thread = start_idle(worker)
        try:
            done = client.wait(job["id"], timeout=PROMPT_S, poll=0.02)
            assert done["state"] == jobstore.DONE
            assert done["worker_id"] == "remote"
        finally:
            stop_within(worker, thread, PROMPT_S)

    def test_remote_stop_wakes_idle_loop(self, paused_daemon, tmp_path):
        worker = remote_worker(paused_daemon, tmp_path)
        thread = start_idle(worker)
        stop_within(worker, thread, 1.0)

    def test_remote_lease_renewed_between_polls(self, paused_daemon, tmp_path):
        # The job outlives its 2 s lease; renewals are due every second,
        # long before the 30 s poll timer fires.
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=30_000, warmup=WARMUP)
        worker = remote_worker(paused_daemon, tmp_path, lease_seconds=2.0)
        thread = start_idle(worker)
        try:
            done = client.wait(job["id"], timeout=60, poll=0.05)
            assert done["state"] == jobstore.DONE
            assert done["attempts"] == 1
            assert paused_daemon.metrics()["worker.lease_expirations"] == 0
        finally:
            stop_within(worker, thread, PROMPT_S)

    def test_remote_drain_releases_claims_at_once(self, paused_daemon, tmp_path):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=SLOW_OPS, warmup=WARMUP)
        worker = remote_worker(paused_daemon, tmp_path, drain_seconds=0.0)
        thread = start_idle(worker)
        assert wait_for(lambda: worker.inflight == 1, timeout=PROMPT_S)
        stop_within(worker, thread, PROMPT_S)
        row = paused_daemon.store.get(job["id"])
        assert row.state == jobstore.QUEUED
        assert row.attempts == 0
        assert row.worker_id is None

    def test_remote_timeout_is_killed_before_lease_lapses(
        self, paused_daemon, tmp_path
    ):
        client = ServiceClient(paused_daemon.url)
        job = client.submit(
            "lbm06", "ideal", ops=SLOW_OPS, warmup=WARMUP, timeout=1.0,
            max_attempts=1,
        )
        worker = remote_worker(paused_daemon, tmp_path, lease_seconds=60.0)
        thread = start_idle(worker)
        try:
            assert wait_for(lambda: worker.inflight == 1, timeout=PROMPT_S)
            pids = list(worker._pool._processes)
            assert wait_for(
                lambda: paused_daemon.store.get(job["id"]).terminal, timeout=PROMPT_S
            )
            failed = paused_daemon.store.get(job["id"])
            assert failed.state == jobstore.FAILED
            assert failed.error == TIMEOUT_ERROR
            assert wait_for(lambda: not any(alive(pid) for pid in pids), timeout=5)
        finally:
            stop_within(worker, thread, PROMPT_S)


#: Runs a worker on the main thread while SIGALRM handlers call notify()
#: every millisecond and finally request_stop(), as the CLI's SIGTERM
#: handler does.  Handlers run on the loop's own thread, between its
#: bytecodes, so a wake-up primitive that locks (threading.Event)
#: deadlocks here.  The source is the store at ``argv[1]``, or the
#: daemon at that URL.
SIGNAL_SCRIPT = textwrap.dedent(
    """
    import signal, sys
    from repro.service.client import ServiceClient
    from repro.service.daemon import StoreSource
    from repro.service.jobstore import JobStore
    from repro.service.worker import HttpSource, Worker

    if sys.argv[1].startswith("http://"):
        source = HttpSource(ServiceClient(sys.argv[1]))
    else:
        source = StoreSource(JobStore(sys.argv[1]))
    worker = Worker(
        source, cache_dir=sys.argv[2], trace_dir=sys.argv[2], poll_interval=0.0005
    )
    signals = 0

    def on_alarm(signum, frame):
        global signals
        signals += 1
        if signals < 1000:
            worker.notify()
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            worker.request_stop()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    worker.run()
    print("stopped after", signals, "signals")
    """
)


def run_signal_script(target: str, tmp_path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SIGNAL_SCRIPT, target, str(tmp_path / "simcache")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "stopped after 1000 signals" in proc.stdout


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_signal_handler_wakeups_never_deadlock(tmp_path):
    run_signal_script(str(tmp_path / "jobs.db"), tmp_path)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_signal_handler_wakeups_never_deadlock_remote(paused_daemon, tmp_path):
    run_signal_script(paused_daemon.url, tmp_path)

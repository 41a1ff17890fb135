"""The scheduler's run loop wakes on events, not on its poll timer.

Every scheduler here idles on a 30 s ``poll_interval``, so a job that
completes within a few seconds proves the loop was woken: by the
submission that queued it, by the pool future that finished it, or by
``request_stop``.  A loop that only polled would sleep out the 30 s.
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
from repro.service.jobstore import JobStore
from repro.service.scheduler import Scheduler
from repro.sim import runner
from tests.test_service import submit, wait_for
from tests.test_service_http import OPS, WARMUP, make_daemon

#: far longer than any test below may take
IDLE_POLL_S = 30.0
#: a tiny job is dispatched, run and harvested well within this
PROMPT_S = 10.0


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)
    yield
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)


def start_idle(scheduler: Scheduler) -> threading.Thread:
    """Run ``scheduler`` on a thread and let it settle into its idle sleep."""
    scheduler.poll_interval = IDLE_POLL_S
    thread = threading.Thread(target=scheduler.run, daemon=True)
    thread.start()
    time.sleep(0.5)
    return thread


def stop_within(scheduler: Scheduler, thread: threading.Thread, seconds: float):
    scheduler.request_stop()
    thread.join(seconds)
    assert not thread.is_alive(), f"scheduler still running {seconds} s after stop"


class TestWakeups:
    def test_submission_to_idle_loop_runs_promptly(self, tmp_path):
        # POST /jobs wakes the loop to dispatch; the finished future
        # wakes it again to harvest.
        daemon = make_daemon(tmp_path, run_scheduler=False, workers=1)
        thread = start_idle(daemon.scheduler)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
            assert job["state"] == jobstore.QUEUED
            done = client.wait(job["id"], timeout=PROMPT_S, poll=0.02)
            assert done["state"] == jobstore.DONE
            assert done["source"] == "executed"
        finally:
            stop_within(daemon.scheduler, thread, PROMPT_S)
            daemon.stop()

    def test_finished_future_wakes_idle_loop(self, tmp_path):
        # Queued before the loop starts, so its first pass dispatches it
        # without any wake-up; only the completion can end the sleep.
        store = JobStore(tmp_path / "jobs.db")
        job, _ = submit(store)
        scheduler = Scheduler(store, cache_dir=str(tmp_path / "simcache"), workers=1)
        thread = start_idle(scheduler)
        try:
            assert wait_for(lambda: store.get(job.id).terminal, timeout=PROMPT_S)
            assert store.get(job.id).state == jobstore.DONE
        finally:
            stop_within(scheduler, thread, PROMPT_S)
            store.close()

    def test_wakeup_during_a_pass_is_not_lost(self, tmp_path, monkeypatch):
        # A submission that lands after the pass's claim but before its
        # sleep must end that sleep: wake-ups are dropped before a pass,
        # never after it.
        store = JobStore(tmp_path / "jobs.db")
        scheduler = Scheduler(store, cache_dir=str(tmp_path / "simcache"), workers=1)
        submitted = []
        renew = scheduler._renew_leases

        def renew_then_submit():
            renew()
            if not submitted and scheduler.inflight == 0:
                submitted.append(submit(store)[0])
                scheduler.notify()

        monkeypatch.setattr(scheduler, "_renew_leases", renew_then_submit)
        thread = start_idle(scheduler)
        try:
            assert wait_for(lambda: submitted, timeout=PROMPT_S), "no pass ran"
            job = submitted[0]
            assert wait_for(lambda: store.get(job.id).terminal, timeout=PROMPT_S)
            assert store.get(job.id).state == jobstore.DONE
        finally:
            stop_within(scheduler, thread, PROMPT_S)
            store.close()

    def test_stop_wakes_idle_loop(self, tmp_path):
        daemon = make_daemon(tmp_path, run_scheduler=False)
        thread = start_idle(daemon.scheduler)
        try:
            stop_within(daemon.scheduler, thread, 1.0)
        finally:
            daemon.stop()


#: Runs a scheduler on the main thread while SIGALRM handlers call
#: notify() every millisecond and finally request_stop(), as the CLI's
#: SIGTERM handler does.  Handlers run on the loop's own thread, between
#: its bytecodes, so a wake-up primitive that locks (threading.Event)
#: deadlocks here.
SIGNAL_SCRIPT = textwrap.dedent(
    """
    import signal, sys
    from repro.service.jobstore import JobStore
    from repro.service.scheduler import Scheduler

    store = JobStore(sys.argv[1])
    scheduler = Scheduler(store, cache_dir=sys.argv[2], poll_interval=0.0005)
    signals = 0

    def on_alarm(signum, frame):
        global signals
        signals += 1
        if signals < 1000:
            scheduler.notify()
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            scheduler.request_stop()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    scheduler.run()
    store.close()
    print("stopped after", signals, "signals")
    """
)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_signal_handler_wakeups_never_deadlock(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SIGNAL_SCRIPT,
         str(tmp_path / "jobs.db"), str(tmp_path / "simcache")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "stopped after 1000 signals" in proc.stdout

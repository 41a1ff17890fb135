"""Pool processes obey SIGTERM and die with their parent.

The CLI installs its SIGTERM handler before the pool forks, so a pool
process inherits a handler that only stops its own copy of the parent.
These tests run ``repro serve`` and ``repro worker`` as real
subprocesses, with those handlers installed, and check that a timed-out
job's process is killed and a SIGKILLed worker leaves no pool process
behind.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service import jobstore
from repro.service.client import ServiceClient
from repro.sim import runner
from tests.test_distributed import make_daemon
from tests.test_service import wait_for
from tests.test_service_wake import SLOW_OPS, alive

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="reads child processes from /proc"
)


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)
    yield
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)


def repro_process(tmp_path, *args) -> subprocess.Popen:
    """``python -m repro *args`` in its own process group (see :func:`kill_group`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env["REPRO_TRACE_DIR"] = str(tmp_path / "traces")
    env.pop("REPRO_SERVICE_TOKEN", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )


def children(pid: int) -> list:
    """Live (non-zombie) direct children of ``pid``."""
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return [child for child in found if alive(child)]


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` and every process it forked, orphaned or not."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def test_serve_kills_timed_out_job_and_exits_on_sigterm(tmp_path):
    daemon = repro_process(
        tmp_path, "--cache-dir", str(tmp_path / "cache"), "serve", "--port", "0",
        "--db", str(tmp_path / "service.db"), "--workers", "1",
        "--job-timeout", "1", "--quiet",
    )
    seen = set()
    try:
        match = re.search(r"listening on (http://[\d.:]+)", daemon.stdout.readline())
        assert match, "daemon did not announce its address"
        client = ServiceClient(match.group(1), token="")
        job = client.submit("lbm06", "ideal", ops=SLOW_OPS, warmup=100,
                            max_attempts=2)

        def failed():
            seen.update(children(daemon.pid))
            return client.job(job["id"])["state"] == jobstore.FAILED

        assert wait_for(failed, timeout=60)
        assert "timeout" in client.job(job["id"])["error"]
        assert seen, "the job never ran on a pool process"
        assert wait_for(lambda: not children(daemon.pid), timeout=5), (
            f"pool processes still running: {children(daemon.pid)}"
        )
        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=10)
        assert daemon.returncode == 0
        assert "drained cleanly" in out
    finally:
        kill_group(daemon)


def test_sigkilled_worker_leaves_no_pool_processes(tmp_path):
    daemon = make_daemon(tmp_path)
    worker = None
    try:
        client = ServiceClient(daemon.url)
        job = client.submit("lbm06", "ideal", ops=SLOW_OPS, warmup=100)
        worker = repro_process(
            tmp_path, "--cache-dir", str(tmp_path / "worker-cache"), "worker",
            "--url", daemon.url, "--worker-id", "doomed", "--workers", "1",
            "--poll", "0.05", "--quiet",
        )
        assert wait_for(
            lambda: daemon.store.get(job["id"]).worker_id == "doomed", timeout=30
        )
        assert wait_for(lambda: children(worker.pid), timeout=30)
        pool = children(worker.pid)
        worker.kill()
        worker.wait()
        assert wait_for(lambda: not any(alive(pid) for pid in pool), timeout=5), (
            f"orphaned pool processes: {[pid for pid in pool if alive(pid)]}"
        )
    finally:
        if worker is not None:
            kill_group(worker)
        daemon.stop()

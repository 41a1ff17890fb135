#!/usr/bin/env python
"""CI smoke test for the distributed sweep fabric.

Boots a ``repro serve --remote-only`` daemon (queue + lease reaper +
HTTP, no local execution) plus two ``repro worker`` subprocesses, then:

1. asserts an unauthenticated mutating request is rejected with 401
   (the daemon runs with a bearer token),
2. submits a 40-job sweep over HTTP,
3. SIGKILLs one worker while it holds leased jobs, asserts its pool
   processes exit within 5 s instead of lingering as orphans, and that
   the lease reaper re-queues its jobs (``worker.lease_expirations`` on
   ``/metrics``) so the surviving worker finishes the sweep,
4. verifies every job completed and spot-checks served results
   byte-for-byte against direct in-process ``simulate()`` runs,
5. drains the surviving worker with SIGTERM and checks none of its pool
   processes remain, then drains the daemon and checks the store is
   clean.

Run from the repo root: ``PYTHONPATH=src python scripts/distributed_smoke.py``.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

JOBS = 40
OPS_RANGE = range(102, 102 + 2 * JOBS, 2)  # 40 distinct identities
WARMUP = 100
TOKEN = "smoke-token"
LEASE_SECONDS = 2.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def children(pid):
    """Live (non-zombie) direct children of ``pid``, from ``/proc``."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return [child for child in found if alive(child)]


def alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_gone(pids, seconds):
    """The pids still alive after waiting up to ``seconds`` for them to exit."""
    deadline = time.monotonic() + seconds
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    return [pid for pid in pids if alive(pid)]


def spawn(cmd, env, logfile):
    return subprocess.Popen(
        cmd, env=env, stdout=logfile, stderr=subprocess.STDOUT, text=True
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-distributed-smoke-"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    base_env = dict(os.environ, PYTHONPATH=src, REPRO_SERVICE_TOKEN=TOKEN)

    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--cache-dir",
            str(workdir / "daemon-cache"),
            "serve", "--port", "0", "--db", str(workdir / "service.db"),
            "--remote-only", "--lease-seconds", str(LEASE_SECONDS),
            "--reaper-interval", "0.2", "--quiet",
        ],
        env=base_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    workers = {}
    try:
        url = None
        for _ in range(20):
            line = daemon.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                url = match.group(1)
                break
        if url is None:
            fail("daemon did not announce its address")
        print(f"daemon up at {url} (remote-only, auth on)")

        from repro.service.client import ServiceClient, ServiceError
        from repro.service.jobstore import JobStore
        from repro.sim import runner
        from repro.sim.config import bench_config

        # 1. unauthenticated mutating requests are rejected
        try:
            ServiceClient(url, token="").submit(
                "lbm06", "ideal", ops=200, warmup=WARMUP
            )
        except ServiceError as exc:
            if exc.status != 401:
                fail(f"expected 401 without token, got {exc.status}")
        else:
            fail("unauthenticated submit was accepted")
        print("unauthenticated submit rejected with 401")

        # 2. the sweep: 40 distinct identities
        client = ServiceClient(url, token=TOKEN)
        jobs = [
            client.submit("lbm06", "ideal", ops=ops, warmup=WARMUP)
            for ops in OPS_RANGE
        ]
        if not all(job["created"] for job in jobs):
            fail("sweep submissions were unexpectedly deduplicated")
        print(f"submitted {len(jobs)} jobs")

        # 3. two workers, each with its own local cache
        for name in ("wa", "wb"):
            log = open(workdir / f"{name}.log", "w")
            workers[name] = (
                spawn(
                    [
                        sys.executable, "-m", "repro",
                        "--cache-dir", str(workdir / f"{name}-cache"),
                        "worker", "--url", url, "--worker-id", name,
                        "--workers", "2",
                        "--lease-seconds", str(LEASE_SECONDS),
                        "--poll", "0.1", "--quiet",
                    ],
                    base_env,
                    log,
                ),
                log,
            )
        print("workers wa and wb claiming")

        def running_for(worker_id):
            return [
                j for j in client.jobs(state="running", limit=JOBS)
                if j.get("worker_id") == worker_id
            ]

        # wait until the doomed worker actually holds leases
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if running_for("wa"):
                break
            time.sleep(0.05)
        else:
            fail("worker wa never held a leased job")
        held = [j["id"] for j in running_for("wa")]
        wa_proc = workers["wa"][0]
        wa_pool = children(wa_proc.pid)
        wa_proc.kill()  # SIGKILL: no drain, no goodbye
        wa_proc.wait()
        print(f"killed worker wa while it held {len(held)} lease(s)")
        orphans = wait_gone(wa_pool, 5.0)
        if orphans:
            fail(f"wa's pool processes outlived it: {orphans}")
        print(f"wa's {len(wa_pool)} pool process(es) exited with it")

        # the reaper must take wa's leases within ~one lease interval:
        # its running jobs go back to queued (or to wb)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if not running_for("wa"):
                break
            time.sleep(0.2)
        else:
            fail("wa's leases were never reaped")
        metrics = client.metrics()
        if metrics.get("worker.lease_expirations", 0) < 1:
            fail(f"reaper never expired wa's leases: {metrics}")
        print(f"lease reaper re-queued wa's jobs "
              f"(expirations={metrics['worker.lease_expirations']})")

        # 4. the surviving worker drains the whole sweep
        deadline = time.monotonic() + 600
        while time.monotonic() < deadline:
            done = sum(
                1 for job in jobs if client.job(job["id"])["state"] == "done"
            )
            if done == len(jobs):
                break
            time.sleep(0.5)
        else:
            counts = {}
            for job in jobs:
                state = client.job(job["id"])["state"]
                counts[state] = counts.get(state, 0) + 1
            fail(f"sweep did not finish: {counts}")
        print(f"all {len(jobs)} jobs done — no job lost to the dead worker")

        # spot-check byte-identical results vs direct simulation
        for index in (0, 9, 20, 39):
            ops = list(OPS_RANGE)[index]
            served = client.result(jobs[index]["id"]).to_json_dict()
            direct = runner.simulate(
                "lbm06", "ideal",
                bench_config(ops_per_core=ops, warmup_ops=WARMUP),
                use_cache=False,
            ).to_json_dict()
            served["extras"].pop("sim_seconds", None)
            direct["extras"].pop("sim_seconds", None)
            if served != direct:
                fail(f"result for ops={ops} differs from direct simulate()")
        print("served results byte-identical to direct simulate()")

        final_metrics = client.metrics()
        if final_metrics.get("worker.live", 0) < 1:
            fail("live-worker gauge lost the surviving worker")
        completions = final_metrics.get("worker.completed.wb", 0)
        if completions < 1:
            fail("per-worker completion counter missing for wb")
        print(f"telemetry: wb completed {completions} jobs")

        # 5. graceful shutdown, clean store
        wb_proc, _ = workers["wb"]
        wb_pool = children(wb_proc.pid)
        wb_proc.send_signal(signal.SIGTERM)
        try:
            wb_proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            wb_proc.kill()
            fail("worker wb did not drain within 60s of SIGTERM")
        leftover = [pid for pid in wb_pool if alive(pid)]
        if leftover:
            fail(f"wb's pool processes outlived its drain: {leftover}")
        print(f"wb drained; none of its {len(wb_pool)} pool process(es) remain")
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not drain within 60s of SIGTERM")
        if daemon.returncode != 0:
            fail(f"daemon exited {daemon.returncode} after SIGTERM")
        store = JobStore(workdir / "service.db")
        try:
            counts = store.counts()
        finally:
            store.close()
        if counts["running"] != 0 or counts["failed"] != 0:
            fail(f"store not clean after shutdown: {counts}")
        if counts["done"] != len(jobs):
            fail(f"expected {len(jobs)} done jobs, saw {counts}")
        print(f"store clean after shutdown: {counts}")
        print("distributed smoke OK")
    finally:
        for proc, log in workers.values():
            if proc.poll() is None:
                proc.kill()
            log.close()
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()

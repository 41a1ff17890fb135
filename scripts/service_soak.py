#!/usr/bin/env python
"""CI soak: 200 service jobs on one pool process keep its memory flat.

Boots ``repro serve --workers 1`` as a subprocess and submits 200
service-sized ``ideal`` jobs (``warmup_ops`` 100, ``ops_per_core`` 200
and up) one after another.  They rotate over the 12 SPEC-like roster
workloads the ``service_sweep`` benchmark rotates, and each round of 12
is one op longer than the last, so every job is a new identity that
executes.  The one pool process runs them all, keeping one store per
workload: first-touch lines, compression memos and trace records, and,
from a workload's second job on, the stored line versions its later
jobs draw again.

After job 100 and after job 200 it reads ``GET /metrics`` and fails if

- ``runner.data.entries`` (what the pool process's workload stores
  hold) exceeds ``runner.WORKLOAD_DATA_BOUND``, or
- ``worker.pool_rss_mb`` (the pool process's peak RSS) grew between the
  two readings by more than ``RSS_GROWTH_MB``.

Run from the repo root: ``PYTHONPATH=src python scripts/service_soak.py``.
"""

import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The roster workloads ``perfbench/sweep.py`` rotates (copied, not imported).
WORKLOADS = (
    "lbm06", "mcf06", "milc06", "libquantum06", "soplex06", "omnetpp06",
    "gcc06", "lbm17", "mcf17", "cam417", "fotonik17", "roms17",
)
DESIGN = "ideal"
OPS, WARMUP = 200, 100
JOBS = 200
CHECKPOINTS = (100, 200)
#: Allowed growth of the pool process's peak RSS from job 100 to job 200.
#: Four runs on a 2-core VM (Python 3.11) grew 0.38-0.50 MB (peak
#: 54.5-54.8 then 55.0-55.3 MB), as the 12 stores went from 78,745 to
#: 80,642 entries: each round of jobs is one op longer, so a few new lines.
RSS_GROWTH_MB = 4.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-soak-"))
    env = dict(os.environ, REPRO_CACHE_DIR=str(workdir / "simcache"))
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop("REPRO_SERVICE_TOKEN", None)
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--db", str(workdir / "service.db"), "--workers", "1", "--quiet",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines: "queue.Queue" = queue.Queue()

    def pump() -> None:
        for line in daemon.stdout:
            lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    try:
        try:
            announce = lines.get(timeout=60)
        except queue.Empty:
            fail("daemon did not start")
        match = re.search(r"listening on (http://[\d.]+:\d+)", announce)
        if not match:
            fail(f"daemon did not announce its address: {announce!r}")

        from repro.service.client import ServiceClient
        from repro.sim.runner import WORKLOAD_DATA_BOUND

        client = ServiceClient(match.group(1), token="")
        readings = {}
        for index in range(JOBS):
            workload = WORKLOADS[index % len(WORKLOADS)]
            ops = OPS + index // len(WORKLOADS)
            job = client.submit(workload, DESIGN, ops=ops, warmup=WARMUP)
            done = client.wait(job["id"], timeout=120)
            if done["state"] != "done" or done["source"] != "executed":
                fail(f"job {index} ({workload}, {ops} ops) ended {done}")
            if index + 1 in CHECKPOINTS:
                metrics = client.metrics()
                readings[index + 1] = (
                    metrics["runner.data.workloads"],
                    metrics["runner.data.entries"],
                    metrics["worker.pool_rss_mb"],
                )
                workloads, entries, rss_mb = readings[index + 1]
                print(
                    f"after job {index + 1}: {workloads} workload stores, "
                    f"{entries} entries (bound {WORKLOAD_DATA_BOUND}), "
                    f"pool peak RSS {rss_mb:.1f} MB"
                )
                if entries > WORKLOAD_DATA_BOUND:
                    fail(f"{entries} entries exceed the bound {WORKLOAD_DATA_BOUND}")
        growth = readings[CHECKPOINTS[1]][2] - readings[CHECKPOINTS[0]][2]
        print(f"pool peak RSS grew {growth:.2f} MB from job 100 to job 200")
        if growth > RSS_GROWTH_MB:
            fail(f"pool peak RSS grew {growth:.2f} MB (allowed {RSS_GROWTH_MB})")

        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            fail("daemon did not drain within 60s of SIGTERM")
        if code != 0:
            fail(f"daemon exited {code} after SIGTERM")
        print("service soak OK")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""CI smoke test for the job-queue service.

Boots ``repro serve`` as a real subprocess on an ephemeral port, then:

1. submits a job over HTTP and polls it to completion,
2. asserts the served result matches a direct in-process ``simulate()``
   (ignoring the wall-time provenance extra),
3. re-submits the same identity and asserts it is served from the
   shared disk cache without execution,
4. scrapes ``GET /metrics?format=prometheus`` and checks the text
   0.0.4 content type plus counter/gauge/histogram lines,
5. sends SIGTERM and verifies a clean drain (exit code 0, no
   ``running`` rows left in the job store),
6. parses the daemon's structured log (newline-delimited JSON on
   stderr) and asserts the job lifecycle events were recorded.

The daemon's merged stdout and stderr are read by one thread, line by
line, from start to exit, so no record is lost between the address
announcement and shutdown.

Run from the repo root: ``PYTHONPATH=src python scripts/service_smoke.py``.
"""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

OPS, WARMUP = 200, 100


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    cache_dir = workdir / "simcache"
    db_path = workdir / "service.db"
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--ops", str(OPS), "--warmup", str(WARMUP),
            "serve", "--port", "0", "--db", str(db_path),
            "--workers", "2", "--drain-seconds", "30",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # One reader owns the pipe: every line goes through it into ``lines``
    # (``None`` marks the end of the stream).
    lines: "queue.Queue" = queue.Queue()

    def pump() -> None:
        for line in daemon.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    log = []
    try:
        # stderr (the structured log) is merged into stdout, so JSON log
        # records may race ahead of the address announcement — keep
        # reading until it appears.
        url = None
        while url is None:
            try:
                line = lines.get(timeout=60)
            except queue.Empty:
                break
            if line is None:
                break
            log.append(line)
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                url = match.group(1)
        if url is None:
            fail(f"daemon did not announce its address: {log!r}")
        print(f"daemon up at {url}")

        from repro.service.client import ServiceClient
        from repro.service.jobstore import JobStore
        from repro.sim import runner
        from repro.sim.config import bench_config

        client = ServiceClient(url)
        if not client.healthz()["ok"]:
            fail("healthz not ok")

        job = client.submit("lbm06", "dynamic_ptmc", ops=OPS, warmup=WARMUP)
        print(f"submitted job {job['id']}")
        done = client.wait(job["id"], timeout=300)
        print(f"job finished: {done['state']} [{done['source']}]")

        served = client.result(job["id"]).to_json_dict()
        direct = runner.simulate(
            "lbm06",
            "dynamic_ptmc",
            bench_config(ops_per_core=OPS, warmup_ops=WARMUP),
            use_cache=False,
        ).to_json_dict()
        served["extras"].pop("sim_seconds", None)
        direct["extras"].pop("sim_seconds", None)
        if served != direct:
            fail("served result differs from direct simulate()")
        print("served result matches direct simulate()")

        again = client.submit("lbm06", "dynamic_ptmc", ops=OPS, warmup=WARMUP)
        if again["state"] != "done" or again["source"] != "cache":
            fail(f"re-submission not served from cache: {again}")
        print("re-submission served instantly from the shared disk cache")

        metrics = client.metrics()
        for path in ("service.completed", "service.queue_depth", "runner.executed"):
            if path not in metrics:
                fail(f"metrics missing {path}")
        print("metrics expose service.* and runner.* paths")

        with urllib.request.urlopen(f"{url}/metrics?format=prometheus") as resp:
            ctype = resp.headers["Content-Type"]
            text = resp.read().decode()
        if ctype != "text/plain; version=0.0.4; charset=utf-8":
            fail(f"wrong prometheus content type: {ctype}")
        for pattern in (
            r"^repro_service_completed_total \d+$",
            r"^repro_service_uptime_seconds \d",
            r'^repro_service_job_seconds_bucket\{le="\+Inf"\} \d+$',
            r"^repro_service_http_request_seconds_count \d+$",
            r"^repro_runner_executed_total \d+$",
        ):
            if not re.search(pattern, text, re.M):
                fail(f"prometheus exposition missing {pattern}")
        print("prometheus exposition scrapes with counters, gauges, histograms")

        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not drain within 60s of SIGTERM")
        if code != 0:
            fail(f"daemon exited {code} after SIGTERM")
        print("daemon drained cleanly on SIGTERM")
        reader.join(timeout=30)
        if reader.is_alive():
            fail("daemon's output stream stayed open after it exited")
        while True:
            line = lines.get_nowait()
            if line is None:
                break
            log.append(line)

        records = []
        for line in log:
            line = line.strip()
            if line.startswith("{"):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    fail(f"unparseable structured-log line: {line!r}")
        events = {record.get("event") for record in records}
        for wanted in ("scheduler_started", "job_submitted", "job_dispatched",
                       "job_completed", "http_request"):
            if wanted not in events:
                fail(f"structured log missing event {wanted!r}: saw {sorted(events)}")
        if any("ts" not in record for record in records):
            fail("structured-log record without a ts field")
        print(f"structured log recorded {len(records)} JSON events "
              f"covering the job lifecycle")

        store = JobStore(db_path)
        try:
            counts = store.counts()
        finally:
            store.close()
        if counts["running"] != 0:
            fail(f"running rows left behind: {counts}")
        print(f"job store clean after shutdown: {counts}")
        print("service smoke OK")
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()

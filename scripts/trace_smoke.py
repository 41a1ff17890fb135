#!/usr/bin/env python
"""CI smoke test for the real-trace ingestion subsystem.

Boots ``repro serve`` as a real subprocess on an ephemeral port, then:

1. generates a small ChampSim-style text trace on the fly,
2. uploads it twice over HTTP (``POST /traces``) and asserts the second
   upload — gzip of the *binary* encoding — dedups by content hash,
3. reads the characterization back (``GET /traces/<prefix>``),
4. submits a trace-backed job (``trace:<hash>``) and polls it to
   completion, asserting the result carries ``trace.*`` telemetry,
5. re-submits the same identity and asserts it is served from the
   shared disk cache without execution,
6. runs the same trace through the local CLI path (``repro sweep
   trace:<hash>``) twice against the same cache dir and asserts the
   second invocation executes nothing (disk-cache round-trip across
   processes),
7. asserts the CLI and the service name a run by one key: ``repro
   stats`` of the job the daemon ran, and of a second job submitted
   with ``trace_seed`` and run with ``--trace-seed``, executes nothing,
8. sends SIGTERM and verifies a clean drain.

Run from the repo root: ``PYTHONPATH=src python scripts/trace_smoke.py``.
"""

import gzip
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

OPS, WARMUP = 200, 100
TRACE_SEED = 7


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def cli(env: dict, args: list, what: str) -> str:
    """Run ``repro <args>`` in a fresh process; its stdout, or fail."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stdout}\n{proc.stderr}")
    return proc.stdout


def make_trace_text() -> str:
    """A small deterministic ChampSim-style trace (reads, writes, reuse)."""
    lines = ["# trace-smoke: strided reads + hot write set"]
    for i in range(300):
        if i % 4 == 3:
            lines.append(f"w {(0x9000 + i % 12) * 64:#x}")
        else:
            lines.append(f"r {(0x1000 + (i * 5) % 80) * 64:#x}")
    return "\n".join(lines) + "\n"


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-trace-smoke-"))
    cache_dir = workdir / "simcache"
    trace_dir = workdir / "traces"
    db_path = workdir / "service.db"
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_TRACE_DIR=str(trace_dir),
    )
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
    try:
        url = None
        preamble = []
        for _ in range(20):
            line = daemon.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                url = match.group(1)
                break
            preamble.append(line)
        if url is None:
            fail(f"daemon did not announce its address: {preamble!r}")
        print(f"daemon up at {url}")

        from repro.service.client import ServiceClient
        from repro.traces.formats import encode_records, parse_bytes

        client = ServiceClient(url)

        text = make_trace_text().encode()
        records = list(parse_bytes(text))
        first = client.upload_trace(text, name="smoke.trace")
        if not first["created"]:
            fail(f"fresh upload not created: {first}")
        digest = first["hash"]
        print(f"uploaded trace {digest[:12]} ({first['records']} records)")

        # same records, different container: gzip of the binary encoding
        again = client.upload_trace(
            gzip.compress(encode_records(records)), name="smoke-again"
        )
        if again["created"] or again["hash"] != digest:
            fail(f"re-upload did not dedup by content: {again}")
        print("re-upload (binary+gzip container) deduplicated by content hash")

        info = client.trace_info(digest[:10])
        if info["records"] != len(records) or not info["reuse_distance"]:
            fail(f"characterization wrong: {info}")
        print(
            f"characterization: {info['records']} records, "
            f"{info['unique_lines']} lines, write_frac {info['write_frac']:.2f}"
        )

        job = client.submit(f"trace:{digest[:12]}", "dynamic_ptmc",
                            ops=OPS, warmup=WARMUP)
        if job["workload"] != f"trace:{digest}":
            fail(f"abbreviated hash not canonicalized: {job['workload']}")
        done = client.wait(job["id"], timeout=300)
        print(f"trace-backed job finished: {done['state']} [{done['source']}]")
        result = client.result(job["id"])
        if result.metrics.get("trace.replayed_records", 0) <= 0:
            fail("result carries no trace.replayed_records")
        print(
            f"result replayed {int(result.metrics['trace.replayed_records'])} "
            f"records ({int(result.metrics['trace.synthesized_fills'])} "
            "synthesized fills)"
        )

        rerun = client.submit(f"trace:{digest}", "dynamic_ptmc",
                              ops=OPS, warmup=WARMUP)
        if rerun["state"] != "done" or rerun["source"] != "cache":
            fail(f"re-submission not served from cache: {rerun}")
        print("re-submission served instantly from the shared disk cache")

        metrics = client.metrics()
        for path in ("trace.ingested", "trace.dedup_hits", "trace.loads"):
            if path not in metrics:
                fail(f"metrics missing {path}")
        if metrics["trace.ingested"] != 1 or metrics["trace.dedup_hits"] != 1:
            fail(f"unexpected trace ingest counters: {metrics}")
        print("daemon metrics expose trace.* counters")

        # CLI path against the same stores: second run must execute nothing
        run_args = [
            "--ops", str(OPS), "--warmup", str(WARMUP),
            "sweep", f"trace:{digest[:12]}", "--designs", "static_ptmc",
        ]
        outputs = [cli(env, run_args, f"repro sweep #{attempt}") for attempt in (1, 2)]
        if " 0 executed" not in outputs[1]:
            fail(f"second trace sweep executed work:\n{outputs[1]}")

        def speedup_rows(text):
            return [ln for ln in text.splitlines() if ln.startswith("trace:")]

        if not speedup_rows(outputs[0]) or speedup_rows(outputs[0]) != speedup_rows(outputs[1]):
            fail("disk-cached trace sweep differs from the executed one")
        print("repro sweep trace:<hash> round-trips through the disk cache across "
              "processes")

        # one key across the CLI and the service: the CLI finds the runs
        # the daemon executed, with and without a trace option
        seeded = client.submit(f"trace:{digest}", "dynamic_ptmc",
                               ops=OPS, warmup=WARMUP, trace_seed=TRACE_SEED)
        seeded = client.wait(seeded["id"], timeout=300)
        if seeded["source"] != "executed":
            fail(f"trace_seed job was not executed by the daemon: {seeded}")
        for flags in ([], ["--trace-seed", str(TRACE_SEED)]):
            out = cli(env, [
                "--ops", str(OPS), "--warmup", str(WARMUP), *flags,
                "stats", f"trace:{digest}", "dynamic_ptmc", "--json",
            ], "repro stats")
            executed = json.loads(out)["runner.executed"]
            if executed != 0:
                fail(f"repro stats {' '.join(flags)} executed {executed} runs "
                     "the daemon already ran")
        print("repro stats serves the daemon's trace jobs from the shared cache "
              "(one key with and without --trace-seed)")

        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not drain within 60s of SIGTERM")
        if daemon.returncode != 0:
            fail(f"daemon exited {daemon.returncode} after SIGTERM")
        print("daemon drained cleanly on SIGTERM")
        print("trace smoke OK")
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()

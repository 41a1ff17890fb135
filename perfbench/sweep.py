"""The ``service_sweep`` workload: a closed-loop client sweep of ``repro serve``.

One ``repro serve --workers 1`` subprocess runs on a fresh temporary job
database, result cache and trace store under ``perfbench/out``.  Two
client threads (one per core of the reference 2-core machine) each submit
a tiny job, poll ``GET /jobs/<id>`` every :data:`POLL_S` seconds until it
is done, fetch the result, and only then submit their next job (closed
loop).  Two of every three submissions carry a *new* identity, which the
daemon executes and writes through its disk cache; the third repeats an
identity already done, which the daemon answers from the disk cache at
submit time.

Correctness: every served result must carry the digest of a direct,
uncached ``simulate()`` of its identity (stored in ``digests.json``, or
computed here after the timed sweep for an identity not stored), so a
cache-served repeat must also equal its executed twin.  The daemon must
drain on SIGTERM with exit code 0 and leave no ``running`` rows.
"""

from __future__ import annotations

import bisect
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    OUT_DIR,
    SERVICE_WORKLOAD,
    child_env,
    child_pids,
    host_factor,
    load_digests,
    median,
    percentile,
    probe_seconds,
    result_digest,
    vm_hwm_mb,
)
from layers import LayerTracer, chrome_trace

#: Job identities: a SPEC-like roster workload on the ``ideal`` design at
#: ``ops_per_core`` ~200 and ``warmup_ops`` 100 (2,400 line accesses).
JOB_WORKLOADS = (
    "lbm06", "mcf06", "milc06", "libquantum06", "soplex06", "omnetpp06",
    "gcc06", "lbm17", "mcf17", "cam417", "fotonik17", "roms17",
)
JOB_DESIGN = "ideal"
JOB_OPS = 200
JOB_WARMUP = 100
JOB_CORES = 8
#: Fixed client poll interval for ``GET /jobs/<id>`` (executed jobs take
#: ~0.1-0.4 s).
POLL_S = 0.02
CLIENTS = 2
#: Every third submission of a client repeats a finished identity.  With
#: one in two, the p50 latency would sit in the gap between cache-served
#: (~10 ms) and executed (~0.2 s) jobs and swing between them run to run.
REPEAT_EVERY = 3
#: Window over which completions are counted for ``jobs_per_s``.
WINDOW_S = 5.0
#: Failure timeouts, short enough that a hung daemon still ends the run
#: well within three minutes (a healthy start, job or drain takes < 1 s).
JOB_TIMEOUT_S = 20.0
STARTUP_TIMEOUT_S = 20.0
DRAIN_TIMEOUT_S = 20.0
#: Seconds between host-speed probes during the timed sweep.
PROBE_INTERVAL_S = 0.1

Identity = Tuple[str, int]  # (workload, ops_per_core)


def identity_for(seed: int, index: int) -> Identity:
    """The ``index``-th new job identity of a sweep seeded ``seed``."""
    workload = JOB_WORKLOADS[(seed + index) % len(JOB_WORKLOADS)]
    return workload, JOB_OPS + seed % 50 + index // len(JOB_WORKLOADS)


def service_key(identity: Identity) -> str:
    """Key of an identity in the stored ``service_sweep`` digests."""
    workload, ops = identity
    return f"{workload}/{ops}"


@dataclass
class JobRecord:
    identity: Identity
    repeat: bool
    #: ``perf_counter`` when the result was in hand
    done_at: float = 0.0
    latency_s: float = 0.0
    submit_s: float = 0.0
    status_s: List[float] = field(default_factory=list)
    result_s: float = 0.0
    source: Optional[str] = None
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    sim_seconds: Optional[float] = None
    digest: Optional[str] = None
    error: Optional[str] = None


class Daemon:
    """One ``repro serve`` subprocess on its own temporary directory."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="service-", dir=OUT_DIR))
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self) -> float:
        """Spawn the daemon; seconds until ``/healthz`` first answers ok.

        Scaled to the reference host speed by probes run here just before
        the spawn and just after the answer.
        """
        from repro.service.client import ServiceClient, ServiceError

        probe_before = probe_seconds()
        started = time.perf_counter()
        self._stderr_file = open(self.dir / "stderr.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--cache-dir", str(self.dir / "simcache"),
                "--trace-dir", str(self.dir / "traces"),
                "serve", "--port", "0", "--db", str(self.dir / "service.db"),
                "--workers", "1", "--quiet",
                "--drain-seconds", str(DRAIN_TIMEOUT_S / 2),
            ],
            env=child_env(self.dir),
            stdout=subprocess.PIPE,
            stderr=self._stderr_file,
            text=True,
        )
        deadline = started + STARTUP_TIMEOUT_S
        while self.url is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError(f"daemon did not announce its address: {self._stderr()}")
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                self.url = match.group(1)
        client = ServiceClient(self.url, token="")
        while True:
            try:
                if client.healthz().get("ok"):
                    seconds = time.perf_counter() - started
                    return seconds * host_factor([probe_before, probe_seconds()])
            except ServiceError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> Tuple[float, float]:
        """(daemon VmHWM, largest pool-worker VmHWM) while it is still up."""
        daemon = vm_hwm_mb(self.proc.pid)
        workers = [vm_hwm_mb(pid) for pid in child_pids(self.proc.pid)]
        return daemon, max(workers, default=0.0)

    def stop(self) -> Optional[str]:
        """SIGTERM, wait for the drain, remove the directory.

        Returns ``None`` on a clean drain, else what went wrong.
        """
        from repro.service.jobstore import RUNNING, JobStore

        problem = None
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                out, _ = self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
                out = ""
                problem = "daemon did not drain within the SIGTERM timeout"
            if problem is None and (self.proc.returncode != 0 or "drained cleanly" not in out):
                problem = f"daemon exited {self.proc.returncode} without a clean drain"
        elif self.proc is not None:
            problem = f"daemon died early with exit code {self.proc.returncode}"
        db = self.dir / "service.db"
        if problem is None and db.exists():
            store = JobStore(db)
            try:
                running = store.counts()[RUNNING]
            finally:
                store.close()
            if running:
                problem = f"{running} job rows left running after the drain"
        if self.proc is not None:
            self._stderr_file.close()
        if problem is not None:
            problem = f"{problem}; stderr: {self._stderr()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        return problem

    def _stderr(self) -> str:
        try:
            return (self.dir / "stderr.log").read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""


class HostProbe:
    """The ``hostprobe.py`` process beside the timed sweep."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "hostprobe.py"), "--interval", str(PROBE_INTERVAL_S)],
            stdout=subprocess.PIPE,
            text=True,
        )

    def stop(self) -> List[Tuple[float, float]]:
        """Terminate it and wait; its (end time, probe seconds) samples."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        samples = []
        for line in out.splitlines():
            fields = line.split()
            if len(fields) == 2:  # a line cut short by the signal is skipped
                samples.append((float(fields[0]), float(fields[1])))
        return samples


def window_factor(probes: List[Tuple[float, float]], start: float, end: float) -> float:
    """:func:`common.host_factor` of the probes taken during ``[start, end]``.

    The window is widened by one probe interval each side, so a job
    shorter than the interval still has a probe; failing that, the
    nearest probe stands in.
    """
    times = [at for at, _ in probes]
    low = bisect.bisect_left(times, start - PROBE_INTERVAL_S)
    high = bisect.bisect_right(times, end + PROBE_INTERVAL_S)
    if low == high:
        if not probes:
            raise RuntimeError("the host-speed probe recorded nothing")
        low = min(range(len(times)), key=lambda i: abs(times[i] - start))
        high = low + 1
    return host_factor([seconds for _, seconds in probes[low:high]])


class _Sweep:
    """Shared state of the client threads of one sweep."""

    def __init__(self, url: str, seed: int, deadline: float, traced: bool) -> None:
        self.url = url
        self.seed = seed
        self.deadline = deadline
        self.traced = traced
        self.lock = threading.Lock()
        self.next_index = 0
        self.done: List[Identity] = []
        self.records: List[JobRecord] = []
        self.tracers: List[LayerTracer] = []
        self.crashes: List[str] = []

    def new_identity(self) -> Identity:
        with self.lock:
            index = self.next_index
            self.next_index += 1
        return identity_for(self.seed, index)

    def client(self, number: int) -> None:
        """One client thread; a crash ends it and is reported as a problem."""
        try:
            self._client_loop(number)
        except Exception:  # noqa: BLE001 — the thread boundary
            with self.lock:
                self.crashes.append(traceback.format_exc())

    def _client_loop(self, number: int) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, timeout=JOB_TIMEOUT_S, token="")
        one_job = self._one_job
        if self.traced:
            tracer = LayerTracer()
            self.tracers.append(tracer)
            tracer.patch(client, "submit", "service.submit")
            tracer.patch(client, "job", "service.status")
            tracer.patch(client, "result", "service.result")
            one_job = tracer.wrap(one_job, "service.job")
        rng = random.Random(self.seed * 1_000 + number)
        turn = 0
        while time.perf_counter() < self.deadline:
            turn += 1
            with self.lock:
                done = list(self.done)
            if turn % REPEAT_EVERY == 0 and done:
                record = JobRecord(rng.choice(done), repeat=True)
            else:
                record = JobRecord(self.new_identity(), repeat=False)
            one_job(client, record)
            with self.lock:
                self.records.append(record)
                if record.error is None and not record.repeat:
                    self.done.append(record.identity)

    def _one_job(self, client, record: JobRecord) -> None:
        from repro.service.client import ServiceError

        workload, ops = record.identity
        started = time.perf_counter()
        try:
            job = client.submit(workload, JOB_DESIGN, ops=ops, warmup=JOB_WARMUP)
            record.submit_s = time.perf_counter() - started
            while job["state"] not in ("done", "failed", "cancelled"):
                if time.perf_counter() - started > JOB_TIMEOUT_S:
                    record.error = f"job {job['id']} timed out in state {job['state']}"
                    return
                time.sleep(POLL_S)
                asked = time.perf_counter()
                job = client.job(job["id"])
                record.status_s.append(time.perf_counter() - asked)
            if job["state"] != "done":
                record.error = f"job {job['id']} ended {job['state']}: {job.get('error')}"
                return
            asked = time.perf_counter()
            result = client.result(job["id"])
            record.done_at = time.perf_counter()
            record.result_s = record.done_at - asked
            record.latency_s = record.done_at - started
        except (ServiceError, OSError, ValueError) as exc:
            # connection resets escape urllib unwrapped; a bad body is a
            # ValueError: either way this job failed, the sweep goes on
            record.error = f"{type(exc).__name__}: {exc}"
            return
        record.source = job["source"]
        record.created_at = job["created_at"]
        record.started_at = job["started_at"]
        record.finished_at = job["finished_at"]
        record.sim_seconds = result.extras.get("sim_seconds")
        record.digest = result_digest(result.metrics, result.core_cycles)


@dataclass
class SweepOutcome:
    records: List[JobRecord]
    #: ``perf_counter`` at the start of the timed sweep, and its length
    started: float
    seconds: float
    wall_s: float
    setup_s: float
    daemon_rss_mb: float
    worker_rss_mb: float
    dedup_cache: int
    disk_stores: int
    problems: List[str]
    tracers: List[LayerTracer]
    #: host-speed probes of the timed sweep: (end time, probe seconds)
    probes: List[Tuple[float, float]]


def run_sweep(seed: int, seconds: float, traced: bool = False) -> SweepOutcome:
    """Start a daemon, warm its worker pool, drive the clients, drain it."""
    from repro.service.client import ServiceClient
    from repro.sim.diskcache import DiskCache

    daemon = Daemon()
    probe: Optional[HostProbe] = None
    problems: List[str] = []
    try:
        setup_s = daemon.start()
        client = ServiceClient(daemon.url, timeout=JOB_TIMEOUT_S, token="")
        # warm-up, one job per roster workload at half size (identities the
        # sweep never submits): the first dispatch spawns the pool worker and
        # the worker's compressor memos fill; users pay both once per
        # daemon, so they stay out of the timed sweep
        warm = [client.submit(workload, JOB_DESIGN, ops=JOB_OPS // 2, warmup=JOB_WARMUP)
                for workload in JOB_WORKLOADS]
        for job in warm:
            client.wait(job["id"], timeout=JOB_TIMEOUT_S, poll=POLL_S)
        baseline = client.metrics()
        probe = HostProbe()
        started = time.perf_counter()
        sweep = _Sweep(daemon.url, seed, started + seconds, traced)
        threads = [
            threading.Thread(target=sweep.client, args=(n,), name=f"client-{n}")
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        probes, probe = probe.stop(), None
        dedup_cache = client.metrics()["service.dedup_cache"] - baseline["service.dedup_cache"]
        # the pool worker, not the daemon, writes results through the disk
        # cache, so its stores are counted on disk (less the warm-up's)
        disk_stores = len(DiskCache(daemon.dir / "simcache")) - len(warm)
        daemon_rss, worker_rss = daemon.peak_rss_mb()
    finally:
        if probe is not None:
            probe.stop()
        problem = daemon.stop()
    problems.extend(sweep.crashes)
    if problem is not None:
        problems.append(problem)
    return SweepOutcome(
        records=sweep.records,
        started=started,
        seconds=seconds,
        wall_s=wall_s,
        setup_s=setup_s,
        daemon_rss_mb=daemon_rss,
        worker_rss_mb=worker_rss,
        dedup_cache=dedup_cache,
        disk_stores=disk_stores,
        problems=problems,
        tracers=sweep.tracers,
        probes=probes,
    )


def verify(records: List[JobRecord]) -> None:
    """Mark every record whose result is wrong.

    Each identity's expected digest is the stored one (``digests.json``,
    from a direct uncached ``simulate()``), else a direct uncached
    ``simulate()`` run here, untimed.  Repeats are held to the same digest,
    so a cache-served result must equal the executed one.
    """
    from repro.sim import runner
    from repro.sim.config import bench_config

    expected = load_digests().get(SERVICE_WORKLOAD, {})
    for record in records:
        if record.error is not None:
            continue
        key = service_key(record.identity)
        if key not in expected:
            workload, ops = record.identity
            result = runner.simulate(
                workload,
                JOB_DESIGN,
                bench_config(ops_per_core=ops, warmup_ops=JOB_WARMUP),
                use_cache=False,
            )
            expected[key] = result_digest(result.metrics, result.core_cycles)
        if record.digest != expected[key]:
            kind = "cache-served" if record.repeat else "executed"
            record.error = f"{kind} result of {key} differs from direct simulate()"


def daemon_setup_s() -> Tuple[float, Optional[str]]:
    """Start and drain one throw-away daemon; (set-up seconds, problem)."""
    daemon = Daemon()
    try:
        seconds = daemon.start()
    finally:
        problem = daemon.stop()
    return seconds, problem


def windowed_rate(times: List[float], start: float, seconds: float,
                  probes: List[Tuple[float, float]]) -> float:
    """Median over :data:`WINDOW_S`-long windows of events per second.

    The windows tile ``[start, start + seconds)``; events after it (jobs
    in flight at the deadline) are left out.  Each window's rate is scaled
    to the reference host speed by the probes taken during it, and a
    median over windows keeps a burst of outside load from moving the
    whole run's rate.
    """
    windows = max(1, int(seconds // WINDOW_S))
    width = seconds / windows
    within: List[List[float]] = [[] for _ in range(windows)]
    for at in sorted(times):
        index = int((at - start) // width)
        if 0 <= index < windows:
            within[index].append(at)
    # events per second between a window's first and last event: a rate
    # with the clock's resolution, not a count quantized by the width
    rates = [(len(w) - 1) / (w[-1] - w[0]) / window_factor(probes, w[0], w[-1])
             for w in within if len(w) > 1 and w[-1] > w[0]]
    return median(rates) if rates else 0.0


def summarize(outcome: SweepOutcome) -> Dict[str, float]:
    """End-to-end and per-layer figures of one sweep (failed jobs excluded).

    The end-to-end figures are scaled to the reference host speed by the
    probes taken while each job (or window) ran; the per-layer ones are
    as measured.
    """
    good = [r for r in outcome.records if r.error is None]
    executed = [r for r in good if not r.repeat]
    factors = {id(r): window_factor(outcome.probes, r.done_at - r.latency_s, r.done_at)
               for r in good}
    latencies = [r.latency_s * factors[id(r)] for r in good]
    rates = [JOB_CORES * (r.identity[1] + JOB_WARMUP) / r.sim_seconds / factors[id(r)]
             for r in executed if r.sim_seconds]
    statuses = [s for r in good for s in r.status_s]
    submissions = len(outcome.records)
    return {
        "jobs": float(len(good)),
        "accesses_per_s": median(rates) if rates else 0.0,
        "jobs_per_s": windowed_rate([r.done_at for r in good], outcome.started, outcome.seconds,
                                    outcome.probes),
        "job_latency_p50_s": median(latencies) if latencies else 0.0,
        "job_latency_p90_s": percentile(latencies, 90) if latencies else 0.0,
        "service.submit_s_p50": median([r.submit_s for r in good]) if good else 0.0,
        "service.status_s_p50": median(statuses) if statuses else 0.0,
        "service.result_s_p50": median([r.result_s for r in good]) if good else 0.0,
        "service.polls_per_job": (
            sum(len(r.status_s) for r in executed) / len(executed) if executed else 0.0
        ),
        "service.queue_wait_s_p50": (
            median([r.started_at - r.created_at for r in executed]) if executed else 0.0
        ),
        "service.exec_s_p50": (
            median([r.finished_at - r.started_at for r in executed]) if executed else 0.0
        ),
        "service.overhead_s_p50": (
            median([r.latency_s - (r.sim_seconds or 0.0) for r in executed]) if executed else 0.0
        ),
        "service.cache_served_frac": (
            outcome.dedup_cache / submissions if submissions else 0.0
        ),
        "runner.disk.hits": float(sum(r.source in ("cache", "disk") for r in good)),
        "runner.disk.stores": float(outcome.disk_stores),
        "service.daemon_rss_mb": outcome.daemon_rss_mb,
        "service.worker_rss_mb": outcome.worker_rss_mb,
    }


def write_trace(tracers: List[LayerTracer], path: Path) -> None:
    """Client-side spans of a traced sweep as validated Chrome trace JSON."""
    import json

    from repro.obs.tracing import validate_chrome_trace

    payload = chrome_trace(tracers, "perfbench service_sweep clients")
    validate_chrome_trace(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")

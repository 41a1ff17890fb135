"""Helpers shared by the benchmark entry point, its simulation child and its self-test.

Nothing here imports ``repro``: ``run.py`` must be able to report a missing
source tree without a traceback, and the simulation child times its own
``import repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Every simulation workload runs ``bench_config()`` at its defaults:
#: 8 cores x (6,000 measured + 8,000 warmup) line accesses.
SIM_WORKLOADS = {
    "ptmc_mix": ("mix2", "dynamic_ptmc"),
    "gap_uncompressed": ("pr.twitter", "uncompressed"),
}
SERVICE_WORKLOAD = "service_sweep"
WORKLOADS = (*SIM_WORKLOADS, SERVICE_WORKLOAD)

#: Per-workload seed stride: seed ``s`` offsets every roster seed by
#: ``s * SEED_STRIDE``, so seed 0 is exactly the roster workload.
SEED_STRIDE = 1009

#: A simulation's ``run()`` is timed in segments of this many line
#: accesses (about 0.1 s each), so its 112,000 accesses give ~112 segments,
#: each followed by one host-speed probe (:func:`probe_seconds`).
SEGMENT_ACCESSES = 1000
#: Iterations of the probe loop (about 2-3 ms on an idle 2-core VM).
PROBE_LOOPS = 20_000
#: Probe loops per second that the host-normalized figures are scaled to:
#: about the probe's rate on an idle shared 2-core VM.  A figure measured
#: while the probe ran at half this rate is doubled (rates) or halved
#: (times).  A constant: changing it rescales every normalized figure.
REFERENCE_PROBE_RATE = 10_000_000.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default ("linear") method, so a sample
    of n values has its p90 between the two largest when n < 10.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("q must be within 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def result_digest(metrics: Dict[str, float], core_cycles: Iterable[int]) -> str:
    """sha256 over a result's simulated metrics plus per-core cycles.

    Host timings live in ``SimResult.extras``, never in ``metrics``, so
    the digest depends only on what was simulated.
    """
    payload = json.dumps(
        {"metrics": metrics, "core_cycles": list(core_cycles)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    """Stored expected digests: ``{workload: {seed: digest}}``."""
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def expected_digest(workload: str, seed: int) -> Optional[str]:
    return load_digests().get(workload, {}).get(str(seed))


def probe_seconds(iterations: int = PROBE_LOOPS) -> float:
    """Seconds a fixed pure-Python loop takes now (the host-speed probe).

    The host is shared: its speed for one process swings by up to 2x over
    seconds, and CPU time slows with wall time, so the benchmark times
    this loop next to the work it measures and scales the work's time by
    the loop's.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_factor(probe_s: Sequence[float]) -> float:
    """Host speed during ``probe_s`` relative to :data:`REFERENCE_PROBE_RATE`.

    The mean probe rate over the reference rate: below 1 on a busy host.
    Multiply a measured duration by it, or divide a measured rate by it,
    to get the figure on a host whose probe runs at the reference rate.
    """
    if not probe_s:
        raise ValueError("no host-speed probe to normalize by")
    rate = sum(PROBE_LOOPS / p for p in probe_s) / len(probe_s)
    return rate / REFERENCE_PROBE_RATE


def normalized_run_s(segments_s: Sequence[float], probes_s: Sequence[float]) -> float:
    """A segmented ``run()`` time scaled to the reference host speed.

    Probe ``i`` ran between segments ``i`` and ``i + 1``; each segment is
    scaled by the probes either side of it.
    """
    if len(probes_s) != len(segments_s) - 1:
        raise ValueError("expected one probe between consecutive segments")
    total = 0.0
    for i, seconds in enumerate(segments_s):
        total += seconds * host_factor(probes_s[max(0, i - 1):i + 1])
    return total


def calibration_rate(iterations: int = 1_000_000) -> float:
    """Iterations per second of the probe loop run for longer (machine speed)."""
    return iterations / probe_seconds(iterations)


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` (identifies the code when git is absent)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp() -> Dict[str, object]:
    """Machine and code identity recorded before a run (not metrics)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "loadavg_1m_before": os.getloadavg()[0],
        "calibration_loops_per_s": calibration_rate(),
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, whichever of its threads started them.

    Threads come and go while this reads ``/proc`` (an HTTP server starts
    one per request), so a task that vanished is skipped.
    """
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text(encoding="ascii")
        except (FileNotFoundError, ProcessLookupError):
            continue
        children.extend(int(token) for token in text.split())
    return children


def child_env(scratch: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The package comes from this checkout's ``src``; every default store
    (result cache, trace store, job database) points into ``scratch`` so
    nothing is read from or written to the user's home directory; a
    service token in the caller's environment would switch auth on.
    """
    env = dict(os.environ)
    env.pop("REPRO_SERVICE_TOKEN", None)
    env.pop("REPRO_SERVICE_URL", None)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(scratch / "simcache")
    env["REPRO_TRACE_DIR"] = str(scratch / "traces")
    env["REPRO_SERVICE_DB"] = str(scratch / "service.db")
    return env

"""The repository benchmark: simulation throughput and a job-service sweep.

    python3 perfbench/run.py --workload ptmc_mix --seed 0 --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

- ``ptmc_mix``: ``mix2`` on ``dynamic_ptmc`` at ``bench_config()``;
- ``gap_uncompressed``: ``pr.twitter`` on ``uncompressed``, same config;
- ``service_sweep``: ``repro serve --workers 1`` driven closed-loop by two
  client threads submitting tiny jobs, a third of them repeats.

Each simulation runs in a fresh interpreter (``simchild.py``); simulations
follow each other until ``--seconds`` have passed.  ``--trace 0`` prints
every end-to-end metric, each time scaled to the reference host speed by a
probe loop timed beside it (``perfbench/README.md``, "Host
normalization"); ``--trace 1`` runs one untraced and one traced
simulation (or two half-length sweeps) and prints the per-layer metrics,
writing the spans as Chrome trace JSON and a self-time table under
``perfbench/out``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

STARTED = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    SIM_WORKLOADS,
    SRC,
    WORKLOADS,
    child_env,
    environment_stamp,
    expected_digest,
    median,
    normalized_run_s,
    percentile,
)
from layers import LAYER_NAMES  # noqa: E402

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
}

#: Layers whose call count and self time a traced simulation reports; the
#: root and the per-record step report self time only.
_COUNTED_LAYERS = [name for name in LAYER_NAMES if name not in ("sim.loop", "cpu.step")]

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER: Dict[str, str] = {}
for _layer in _COUNTED_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "compression.memo_hit_frac": "ratio",
        "cpu.step.self_s": "s",
        "sim.loop.self_s": "s",
        "sim.import_s": "s",
        "sim.build_s": "s",
        "model.cycles": "cycles",
        "model.llc_misses": "count",
        "model.dram_accesses": "count",
        "service.submit_s_p50": "s",
        "service.status_s_p50": "s",
        "service.result_s_p50": "s",
        "service.polls_per_job": "count",
        "service.queue_wait_s_p50": "s",
        "service.exec_s_p50": "s",
        "service.overhead_s_p50": "s",
        "service.cache_served_frac": "ratio",
        "runner.disk.hits": "count",
        "runner.disk.stores": "count",
        "service.daemon_rss_mb": "MB",
        "service.worker_rss_mb": "MB",
        "trace_overhead_frac": "ratio",
        "failed_frac": "ratio",
    }
)

#: Build-only simulation children run before the timed loop, so set-up
#: time is a median over these plus every timed simulation.
SETUP_SAMPLES = 3
#: Throw-away daemons started and drained before the timed sweep, so
#: service set-up time is a median of five starts.
SERVICE_SETUP_SAMPLES = 4
#: Every simulation child must end within ``--seconds`` plus this margin
#: of the run's start (set-up samples, the last simulation's overrun).
DEADLINE_MARGIN_S = 140.0


class ChildFailed(RuntimeError):
    """A simulation child exited non-zero, timed out or printed no result."""


class Run:
    """Counts, samples and problems of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, object] = {}
        #: every simulation child must end by this ``perf_counter`` time
        self.deadline = STARTED + seconds + DEADLINE_MARGIN_S

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# -- simulation workloads -----------------------------------------------


def sim_child(run: Run, *flags: str) -> dict:
    """Run ``simchild.py`` once; its JSON report plus ``wall_s``."""
    timeout = run.deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed("no time left for another simulation")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "simchild.py"),
             "--workload", run.workload, "--seed", str(run.seed), *flags],
            env=child_env(OUT_DIR),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"simulation timed out after {timeout:.0f} s") from None
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"simulation exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["wall_s"] = wall
    return report


def checked_sim(run: Run, expected: Optional[str], *flags: str) -> Tuple[Optional[dict], Optional[str]]:
    """One counted simulation; (report or None on failure, expected digest)."""
    run.attempted += 1
    try:
        report = sim_child(run, *flags)
    except ChildFailed as exc:
        run.fail(str(exc))
        return None, expected
    if expected is None:
        expected = report["digest"]
    if report["digest"] != expected:
        run.fail(f"digest {report['digest']} differs from expected {expected}")
        return None, expected
    return report, expected


def run_sim(run: Run, seconds: float) -> None:
    """Back-to-back fresh-interpreter simulations for ``seconds``.

    Every time is scaled to the reference host speed by the probes the
    child ran beside it (``common.host_factor``).
    """
    expected = expected_digest(run.workload, run.seed)
    setups = [sim_child(run, "--build-only")["setup_norm_s"] for _ in range(SETUP_SAMPLES)]
    sims = []
    started = time.perf_counter()
    while True:
        report, expected = checked_sim(run, expected)
        if report is not None:
            report["run_norm_s"] = normalized_run_s(report["segments_s"], report["probes_s"])
            sims.append(report)
            setups.append(report["setup_norm_s"])
        if time.perf_counter() - started >= seconds:
            break
    run.details.update(digest=expected, simulations=sims, setup_samples=setups)
    if not sims:
        return
    # a simulation job here is its set-up plus its run(): these three
    # restate setup_s and accesses_per_s, they add no independent signal
    latencies = [s["setup_norm_s"] + s["run_norm_s"] for s in sims]
    run.metrics.update(
        accesses_per_s=median([s["accesses"] / s["run_norm_s"] for s in sims]),
        setup_s=median(setups),
        peak_rss_mb=median([s["peak_rss_mb"] for s in sims]),
        jobs_per_s=len(sims) / sum(latencies),
        job_latency_p50_s=median(latencies),
        job_latency_p90_s=percentile(latencies, 90),
    )


def trace_sim(run: Run) -> None:
    """One untraced and one traced simulation; the per-layer figures."""
    expected = expected_digest(run.workload, run.seed)
    plain, expected = checked_sim(run, expected)
    trace_path = OUT_DIR / f"trace-{run.workload}.json"
    traced, expected = checked_sim(run, expected, "--trace-out", str(trace_path))
    run.details.update(digest=expected, untraced=plain, traced=traced, chrome_trace=str(trace_path))
    if plain is None or traced is None:
        return
    layers = traced["layers"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer in _COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    queries = traced["memo_queries"]
    metrics.update(
        {
            "compression.memo_hit_frac": traced["memo_hits"] / queries if queries else 0.0,
            "cpu.step.self_s": layers["cpu.step"]["self_s"],
            "sim.loop.self_s": layers["sim.loop"]["self_s"],
            "sim.import_s": plain["import_s"],
            "sim.build_s": plain["build_s"],
            "model.cycles": traced["model"]["cycles"],
            "model.llc_misses": traced["model"]["llc_misses"],
            "model.dram_accesses": traced["model"]["dram_accesses"],
            "trace_overhead_frac": traced["run_s"] / plain["run_s"] - 1.0,
        }
    )
    if traced["model"] != plain["model"]:
        run.fail("traced run changed the simulated counts")
    run.metrics.update(metrics)
    write_layer_table(run, traced, metrics["trace_overhead_frac"])


def write_layer_table(run: Run, traced: dict, overhead: float) -> None:
    """Self-time table of a traced simulation, beside its Chrome trace."""
    total = traced["run_s"]
    rows = [f"layer self time, {run.workload} seed {run.seed} (traced run() = {total:.3f} s)",
            f"{'span':24} {'calls':>10} {'self_s':>10} {'share':>7}"]
    for name, row in sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        rows.append(f"{name:24} {row['calls']:>10} {row['self_s']:>10.3f} "
                    f"{row['self_s'] / total:>7.1%}")
    rows.append(f"{'residual':24} {'':>10} {traced['residual_s']:>10.6f}")
    rows.append(f"trace_overhead_frac {overhead:.4f}  "
                f"(spans kept {traced['spans_kept']}, dropped {traced['spans_dropped']})")
    text = "\n".join(rows) + "\n"
    (OUT_DIR / f"layers-{run.workload}.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)


# -- the service workload -----------------------------------------------


def checked_sweep(run: Run, seconds: float, traced: bool = False):
    """One verified sweep; its outcome and summary."""
    import sweep

    outcome = sweep.run_sweep(run.seed, seconds, traced=traced)
    sweep.verify(outcome.records)
    run.attempted += len(outcome.records)
    for record in outcome.records:
        if record.error is not None:
            run.fail(record.error)
    for problem in outcome.problems:
        run.problems.append(problem)
    return outcome, sweep.summarize(outcome)


def run_service(run: Run, seconds: float) -> None:
    import sweep

    setups = []
    for _ in range(SERVICE_SETUP_SAMPLES):
        setup_s, problem = sweep.daemon_setup_s()
        setups.append(setup_s)
        if problem is not None:
            run.problems.append(problem)
    outcome, summary = checked_sweep(run, seconds)
    setups.append(outcome.setup_s)
    run.details.update(setup_samples=setups, summary=summary, wall_s=outcome.wall_s,
                       poll_interval_s=sweep.POLL_S, clients=sweep.CLIENTS)
    run.metrics.update(
        accesses_per_s=summary["accesses_per_s"],
        setup_s=median(setups),
        peak_rss_mb=max(outcome.daemon_rss_mb, outcome.worker_rss_mb),
        jobs_per_s=summary["jobs_per_s"],
        job_latency_p50_s=summary["job_latency_p50_s"],
        job_latency_p90_s=summary["job_latency_p90_s"],
    )


def trace_service(run: Run, seconds: float) -> None:
    """An untraced and a traced half-length sweep; the per-layer figures."""
    import sweep

    _, plain = checked_sweep(run, seconds / 2)
    outcome, summary = checked_sweep(run, seconds / 2, traced=True)
    trace_path = OUT_DIR / f"trace-{run.workload}.json"
    sweep.write_trace(outcome.tracers, trace_path)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({k: v for k, v in summary.items() if k in PER_LAYER})
    metrics["trace_overhead_frac"] = plain["jobs_per_s"] / summary["jobs_per_s"] - 1.0
    run.metrics.update(metrics)
    run.details.update(untraced=plain, traced=summary, chrome_trace=str(trace_path),
                       poll_interval_s=sweep.POLL_S, clients=sweep.CLIENTS)


# -- entry point ----------------------------------------------------------


def result_line(run: Run) -> dict:
    names = PER_LAYER if run.trace else END_TO_END
    if run.trace:
        run.metrics["failed_frac"] = run.failed / run.attempted if run.attempted else 1.0
    return {
        "correct": run.failed == 0 and not run.problems and set(run.metrics) >= set(names),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": run.metrics.get(name, 0.0), "unit": unit}
            for name, unit in names.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    stamp = environment_stamp()
    run = Run(args.workload, args.seed, bool(args.trace), args.seconds)
    try:
        if args.workload in SIM_WORKLOADS and run.trace:
            trace_sim(run)
        elif args.workload in SIM_WORKLOADS:
            run_sim(run, args.seconds)
        elif run.trace:
            trace_service(run, args.seconds)
        else:
            run_service(run, args.seconds)
    except Exception:  # noqa: BLE001 — report any crash as a failed run
        run.fail(traceback.format_exc())
    stamp["loadavg_1m_after"] = os.getloadavg()[0]

    line = result_line(run)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": stamp,
        "problems": run.problems,
        "details": run.details,
        "result": line,
    }
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {run.attempted} attempted, {run.failed} failed; "
          f"report {report_path.relative_to(BENCH_DIR.parent)}")
    for problem in run.problems[:5]:
        print(f"  problem: {problem[:300]}")
    for name, entry in line["metrics"].items():
        print(f"  {name:28} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

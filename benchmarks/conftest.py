"""Shared configuration for the figure/table benchmarks.

Every benchmark regenerates one of the paper's evaluation artefacts.
Each names the (workload, design, config) identities it needs and runs
them as one batch of the sweep engine (``repro.sim.parallel``), fanned
out over every core this process may run on.  Simulations are stored in
the runner's on-disk result cache (``repro.sim.diskcache``), so designs
and baselines shared between figures are only simulated once — and a
*repeat* session is served from disk without executing any simulation
at all.  The cache lives in ``benchmarks/.simcache`` (override with
``$REPRO_CACHE_DIR``); its keys hash the simulator's sources, so a code
change re-simulates on its own.  Each benchmark prints its rows (the
"figure") and dumps them as JSON under ``benchmarks/results/`` so
EXPERIMENTS.md can cite them.

Scale note: these run the ``bench_config`` system (DESIGN.md §4) — a
proportionally scaled machine with short synthetic traces.  Shapes and
orderings are the reproduction target, not absolute values.
"""

import json
import os
import pathlib

import pytest

from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.parallel import run_batch
from repro.sim.results import weighted_speedup
from repro.telemetry import StatRegistry

#: the one config every figure uses (baselines shared via the disk cache)
BENCH_CONFIG = bench_config(ops_per_core=4000, warmup_ops=6000)

#: processes each figure's batch fans out over: every core this one may use
JOBS = len(os.sched_getaffinity(0))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: session-scoped persistent result cache shared by every figure/table
CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_CACHE_DIR", pathlib.Path(__file__).parent / ".simcache")
)


def pytest_configure(config):
    runner.configure_disk_cache(CACHE_DIR)


def pytest_terminal_summary(terminalreporter):
    """Report how much the result cache saved this session.

    Printed, not saved: EXPERIMENTS.md renders only the committed rows,
    so it never carries one machine's session.
    """
    registry = StatRegistry()
    runner.register_stats(registry.scope("runner"))
    stats = registry.delta()
    if not stats["runner.executed"] + stats["runner.disk_hits"]:
        return
    terminalreporter.write_line(
        f"sim result cache [{CACHE_DIR}]: {stats['runner.executed']:.0f} executed "
        f"({stats['runner.sim_seconds']:.1f}s), {stats['runner.disk_hits']:.0f} disk hits "
        f"({stats['runner.hit_seconds']:.2f}s serving replays)"
    )


def run_figure(tasks):
    """Run a figure's (workload, design, config) identities as one batch.

    Returns the results by identity: ``runs[workload name, design,
    config]``.
    """
    tasks = list(tasks)
    report = run_batch(tasks, jobs=JOBS)
    return {
        (name, design, config): result
        for (name, design), (_, _, config), result in zip(
            report.job_names, tasks, report.results
        )
    }


def speedup(runs, workload: str, design: str, config) -> float:
    """Weighted speedup of one run over the uncompressed run of its config."""
    return weighted_speedup(
        runs[workload, design, config], runs[workload, "uncompressed", config]
    )


def save_results(experiment_id: str, payload) -> None:
    """Persist a benchmark's rows for the experiment index."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


@pytest.fixture(scope="session")
def config():
    return BENCH_CONFIG


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Figure generation is deterministic and (via the disk cache)
    idempotent, so a single round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

"""Tests for the process-parallel sweep engine.

The acceptance bar: a parallel sweep must be bitwise-identical to the
serial path (deterministic seeds), and a repeat sweep in a fresh process
must be satisfied entirely from the on-disk cache with zero simulations
executed.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.sim import parallel, runner
from repro.sim.config import quick_config
from repro.sim.diskcache import DiskCache
from repro.sim.results import geometric_mean
from repro.workloads import get_workload

CFG = quick_config(ops_per_core=300, warmup_ops=100)

WORKLOADS = ["lbm06", "mcf06", "milc06", "soplex06"]
DESIGNS = ["static_ptmc", "dynamic_ptmc", "ideal"]


@pytest.fixture(autouse=True)
def _isolated_runner():
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)
    runner.stats.reset()
    yield
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)


class TestRunBatch:
    def test_serial_batch_reports_sources(self):
        report = parallel.run_batch(
            [("lbm06", "ideal"), ("lbm06", "uncompressed")], config=CFG
        )
        assert report.counts() == {
            "jobs": 2,
            "executed": 2,
            "memory_hits": 0,
            "disk_hits": 0,
        }
        assert len(report.seconds) == 2
        assert all(s > 0 for s in report.seconds)
        assert report.wall_seconds > 0

    def test_repeat_batch_hits_memory(self):
        tasks = [("lbm06", "ideal")]
        parallel.run_batch(tasks, config=CFG)
        report = parallel.run_batch(tasks, config=CFG)
        assert report.sources == ["memory"]

    def test_parallel_results_adopted_by_parent(self):
        tasks = [("lbm06", "ideal"), ("mcf06", "ideal")]
        parallel.run_batch(tasks, config=CFG, jobs=2)
        # the parent's memo was seeded: serial follow-ups are free
        _, source = runner.simulate_with_source("lbm06", "ideal", CFG)
        assert source == "memory"


class TestParallelMatchesSerial:
    def test_sweep_bitwise_identical(self):
        serial = {
            workload.name: {d: runner.compare(workload, d, CFG) for d in DESIGNS}
            for workload in map(get_workload, WORKLOADS)
        }
        runner.clear_cache()
        with_pool = parallel.sweep(WORKLOADS, DESIGNS, CFG, jobs=4)
        assert with_pool == serial  # exact float equality, not approx

    def test_suite_geomean_matches(self):
        workloads = [get_workload(w) for w in WORKLOADS[:2]]
        serial = geometric_mean(runner.compare(w, "ideal", CFG) for w in workloads)
        runner.clear_cache()
        assert parallel.suite_geomean(workloads, "ideal", CFG, jobs=2) == serial


class TestDiskCacheIntegration:
    def test_second_cold_run_executes_nothing(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        _, first = parallel.sweep_with_report(WORKLOADS, DESIGNS, CFG, jobs=4)
        assert first.executed == len(WORKLOADS) * (len(DESIGNS) + 1)
        # cold process: memo gone, only the disk cache remains
        runner.clear_cache()
        matrix, second = parallel.sweep_with_report(WORKLOADS, DESIGNS, CFG, jobs=4)
        assert second.executed == 0
        assert second.counts()["disk_hits"] == first.executed
        assert set(matrix) == set(WORKLOADS)

    def test_explicit_cache_dir_shared_with_workers(self, tmp_path):
        """The runner's configured cache is the one every job stores into,
        whether it runs in-process (``jobs=1``) or in a pool process."""
        runner.configure_disk_cache(tmp_path)
        serial = parallel.run_batch([("lbm06", "ideal")], config=CFG, jobs=1)
        pooled = parallel.run_batch([("lbm06", "uncompressed")], config=CFG, jobs=2)
        assert serial.sources == pooled.sources == ["executed"]
        assert len(DiskCache(tmp_path)) == 2
        runner.clear_cache()
        report = parallel.run_batch(
            [("lbm06", "ideal"), ("lbm06", "uncompressed")], config=CFG, jobs=2
        )
        assert report.sources == ["disk", "disk"]

    def test_policy_search_script_stores_into_its_cache_dir(self, tmp_path):
        """``scripts/policy_search.py`` runs its grid through the sweep
        engine, and its pool processes store into ``--cache-dir``."""
        path = pathlib.Path(__file__).resolve().parents[1] / "scripts/policy_search.py"
        spec = importlib.util.spec_from_file_location("policy_search", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "rows.json"
        assert script.main([
            "--suite", "spec17", "--policies", "lru", "--designs", "static_ptmc",
            "--ops", "150", "--warmup", "50", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        ]) == 0
        assert list(json.loads(out.read_text())) == ["lru"]
        # five workloads, each on static_ptmc and its uncompressed baseline
        assert len(DiskCache(tmp_path / "cache")) == 10

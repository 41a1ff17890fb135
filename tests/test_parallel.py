"""Tests for the process-parallel sweep engine.

The acceptance bar: a parallel sweep must be bitwise-identical to the
serial path (deterministic seeds), and a repeat sweep in a fresh process
must be satisfied entirely from the on-disk cache with zero simulations
executed.
"""

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
    runner.configure_disk_cache(enabled=False)
    runner.stats.reset()
    yield
    runner.configure_disk_cache(enabled=False)


class TestRunBatch:
    def test_serial_batch_reports_sources(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        tasks = [("lbm06", "ideal", CFG), ("lbm06", "uncompressed", CFG)]
        report = parallel.run_batch(tasks)
        assert report.counts() == {"jobs": 2, "executed": 2, "disk_hits": 0}
        assert len(report.seconds) == 2
        assert all(s > 0 for s in report.seconds)
        assert report.wall_seconds > 0
        again = parallel.run_batch(tasks)
        assert again.counts() == {"jobs": 2, "executed": 0, "disk_hits": 2}

    def test_repeat_batch_hits_memory(self, tmp_path):
        """A repeated identity is served from disk in the same process;
        with no disk cache it runs again."""
        tasks = [("lbm06", "ideal", CFG)]
        parallel.run_batch(tasks)
        assert parallel.run_batch(tasks).sources == ["executed"]
        runner.configure_disk_cache(tmp_path)
        parallel.run_batch(tasks)
        report = parallel.run_batch(tasks)
        assert report.sources == ["disk"]

    def test_each_task_runs_under_its_own_config(self):
        other = CFG.with_(compression=("bdi",))
        report = parallel.run_batch(
            [("lbm06", "static_ptmc", CFG), ("lbm06", "static_ptmc", other)], jobs=2
        )
        assert report.results[0].metrics == runner.simulate("lbm06", "static_ptmc", CFG).metrics
        assert report.results[1].metrics == runner.simulate(
            "lbm06", "static_ptmc", other
        ).metrics
        assert report.results[0].metrics != report.results[1].metrics

    def test_parallel_results_adopted_by_parent(self, tmp_path):
        """Results the pool processes computed reach the parent through
        the shared disk cache: serial follow-ups execute nothing."""
        runner.configure_disk_cache(tmp_path)
        tasks = [("lbm06", "ideal", CFG), ("mcf06", "ideal", CFG)]
        pooled = parallel.run_batch(tasks, jobs=2)
        assert runner.stats.executed == 2  # the pool's runs, counted here
        _, source = runner.simulate_with_source("lbm06", "ideal", CFG)
        assert source == "disk"
        assert runner.stats.executed == 2
        replay = runner.simulate("mcf06", "ideal", CFG)
        assert replay.metrics == pooled.results[1].metrics

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_calling_process_counts_every_run(self, tmp_path, jobs):
        """A pool process counts its runs only in its own stats, so the
        batch adds them to the caller's: a cold batch reads as executed
        and a warm one as disk hits, whichever process ran each task."""
        runner.configure_disk_cache(tmp_path)
        tasks = [(w, "ideal", CFG) for w in WORKLOADS]
        cold = parallel.run_batch(tasks, jobs=jobs)
        assert runner.stats.executed == len(tasks) == cold.executed
        assert runner.stats.disk_hits == 0
        assert runner.stats.sim_seconds > 0
        parallel.run_batch(tasks, jobs=jobs)
        assert runner.stats.disk_hits == len(tasks)
        assert runner.stats.executed == len(tasks)


class TestParallelMatchesSerial:
    def test_sweep_bitwise_identical(self):
        serial = {
            workload.name: {d: runner.compare(workload, d, CFG) for d in DESIGNS}
            for workload in map(get_workload, WORKLOADS)
        }
        with_pool = parallel.sweep(WORKLOADS, DESIGNS, CFG, jobs=4)
        assert with_pool == serial  # exact float equality, not approx

    def test_suite_geomean_matches(self):
        workloads = [get_workload(w) for w in WORKLOADS[:2]]
        serial = geometric_mean(runner.compare(w, "ideal", CFG) for w in workloads)
        assert parallel.suite_geomean(workloads, "ideal", CFG, jobs=2) == serial


class TestDiskCacheIntegration:
    def test_second_cold_run_executes_nothing(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        _, first = parallel.sweep_with_report(WORKLOADS, DESIGNS, CFG, jobs=4)
        assert first.executed == len(WORKLOADS) * (len(DESIGNS) + 1)
        matrix, second = parallel.sweep_with_report(WORKLOADS, DESIGNS, CFG, jobs=4)
        assert second.executed == 0
        assert second.counts()["disk_hits"] == first.executed
        assert set(matrix) == set(WORKLOADS)

    def test_explicit_cache_dir_shared_with_workers(self, tmp_path):
        """The runner's configured cache is the one every job stores into,
        whether it runs in-process (``jobs=1``) or in a pool process."""
        runner.configure_disk_cache(tmp_path)
        serial = parallel.run_batch([("lbm06", "ideal", CFG)], jobs=1)
        pooled = parallel.run_batch([("lbm06", "uncompressed", CFG)], jobs=2)
        assert serial.sources == pooled.sources == ["executed"]
        assert len(DiskCache(tmp_path)) == 2
        report = parallel.run_batch(
            [("lbm06", "ideal", CFG), ("lbm06", "uncompressed", CFG)], jobs=2
        )
        assert report.sources == ["disk", "disk"]

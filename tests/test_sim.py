"""Tests for the simulation runner, results and configs."""

import re

import pytest

from repro.sim.config import bench_config, paper_config, quick_config
from repro.sim.results import SimResult, geometric_mean, normalized_bandwidth, weighted_speedup
from repro.sim import suite_geomean, sweep
from repro.sim import runner
from repro.sim.runner import compare, simulate
from repro.sim.system import DESIGNS, build_controller
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.types import Category
from repro.workloads import get_workload

CFG = quick_config(ops_per_core=600, warmup_ops=200)


class TestResolveRun:
    """One function maps a workload reference and run options to a run."""

    def test_no_options_name_the_default_run(self):
        assert runner.resolve_run("lbm06", {}) == (get_workload("lbm06"), bench_config())

    def test_config_options_set_their_fields(self):
        options = {"ops_per_core": 200, "warmup_ops": 100, "llc_policy": "srrip"}
        workload, config = runner.resolve_run("lbm06", options)
        assert workload is get_workload("lbm06")
        assert config == bench_config(ops_per_core=200, warmup_ops=100, llc_policy="srrip")

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"seed": 3}, "unsupported config overrides ['seed']"),
            ({"trace_seed": 3}, "['trace_seed'] only apply to trace:<hash> workloads"),
            ({"trace_limit": 5, "trace_loop": False}, "['trace_limit', 'trace_loop'] only"),
            ({"llc_policy": "belady"}, "bad config overrides: llc_policy must be a str from"),
            ({"ops_per_core": "200"}, "ops_per_core must be an int >= 1, not '200'"),
            ({"ops_per_core": True}, "ops_per_core must be an int >= 1, not True"),
            ({"ops_per_core": 2.5}, "ops_per_core must be an int >= 1, not 2.5"),
            ({"ops_per_core": 0}, "ops_per_core must be an int >= 1, not 0"),
            ({"ops_per_core": -5}, "ops_per_core must be an int >= 1, not -5"),
            ({"warmup_ops": -1}, "warmup_ops must be an int >= 0, not -1"),
            ({"warmup_ops": "100"}, "warmup_ops must be an int >= 0, not '100'"),
        ],
    )
    def test_bad_options_are_value_errors(self, options, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            runner.resolve_run("lbm06", options)

    def test_unknown_workload_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown workload"):
            runner.resolve_run("no_such_workload", {})


class TestConfigs:
    def test_presets_distinct(self):
        assert paper_config().hierarchy.l3_bytes > bench_config().hierarchy.l3_bytes
        assert bench_config().hierarchy.l3_bytes > quick_config().hierarchy.l3_bytes

    def test_with_override(self):
        cfg = bench_config().with_(ops_per_core=123)
        assert cfg.ops_per_core == 123

    def test_hashable(self):
        assert hash(bench_config()) == hash(bench_config())
        assert bench_config() == bench_config()

    def test_paper_scale_values(self):
        cfg = paper_config()
        assert cfg.capacity_lines == 1 << 28  # 16GB
        assert cfg.hierarchy.l3_bytes == 8 * 1024 * 1024


class TestBuildController:
    def test_all_designs_instantiate(self):
        for design in DESIGNS:
            memory = PhysicalMemory(1 << 12)
            dram = DRAMSystem()
            controller, policy = build_controller(design, memory, dram, CFG)
            assert controller is not None

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            build_controller("bogus", PhysicalMemory(1 << 12), DRAMSystem(), CFG)

    def test_dynamic_gets_sampling_policy(self):
        from repro.core.policy import SamplingPolicy

        _, policy = build_controller(
            "dynamic_ptmc", PhysicalMemory(1 << 12), DRAMSystem(), CFG
        )
        assert isinstance(policy, SamplingPolicy)

    @pytest.mark.parametrize(
        "design", ["tmc_table", "memzip", "ideal", "static_ptmc", "dynamic_ptmc"]
    )
    @pytest.mark.parametrize("stack", [("fpc", "bdi"), ("bdi",), ("fpc", "bdi", "cpack")])
    def test_compressing_designs_use_the_configured_stack(self, design, stack):
        config = CFG.with_(compression=stack)
        controller, _ = build_controller(
            design, PhysicalMemory(1 << 12), DRAMSystem(), config
        )
        names = tuple(a.name for a in controller.compressor.algorithms)
        assert names == config.compression

    @pytest.mark.parametrize("stack", [("fpc", "lz4"), (), "fpc"])
    def test_unknown_compression_lists_the_choices(self, stack):
        with pytest.raises(ValueError) as err:
            CFG.with_(compression=stack)
        for name in ("bdi", "cpack", "fpc", "fvc", "zero"):
            assert repr(name) in str(err.value)


class TestRunner:
    def test_simulate_returns_result(self):
        result = simulate("lbm06", "uncompressed", CFG)
        assert result.workload == "lbm06"
        assert result.design == "uncompressed"
        assert result.elapsed_cycles > 0
        assert len(result.core_cycles) == CFG.num_cores

    def test_cache_hit_returns_marked_copy(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        try:
            a = simulate("lbm06", "uncompressed", CFG)
            b = simulate("lbm06", "uncompressed", CFG)
            c = simulate("lbm06", "uncompressed", CFG)
        finally:
            runner.configure_disk_cache(enabled=False)
        # each replay is its own decoded object, never the executed result
        # or another replay; it carries its own serve timing instead of
        # the original's wall clock
        assert b is not a and c is not b
        assert "cached" not in a.extras
        assert b.extras["cached"] == c.extras["cached"] == 1.0
        assert b.extras["serve_seconds"] >= 0.0
        assert b.extras["sim_seconds"] == a.extras["sim_seconds"]
        assert b.core_cycles == a.core_cycles
        assert b.metrics == a.metrics

    def test_cache_bypass(self):
        a = simulate("lbm06", "uncompressed", CFG)
        b = simulate("lbm06", "uncompressed", CFG, use_cache=False)
        assert a is not b
        assert a.core_cycles == b.core_cycles  # deterministic

    def test_compare_self_is_one(self):
        assert compare("lbm06", "uncompressed", CFG) == pytest.approx(1.0)

    def test_workload_object_accepted(self):
        result = simulate(get_workload("lbm06"), "uncompressed", CFG)
        assert result.workload == "lbm06"

    def test_sweep_shape(self):
        matrix = sweep([get_workload("lbm06")], ["uncompressed", "ideal"], CFG)
        assert set(matrix) == {"lbm06"}
        assert set(matrix["lbm06"]) == {"uncompressed", "ideal"}

    def test_suite_geomean(self):
        value = suite_geomean([get_workload("lbm06")], "uncompressed", CFG)
        assert value == pytest.approx(1.0)


class TestResults:
    def _result(self, cycles, reads=100, writes=20):
        metrics = {f"dram.accesses.{category.value}": 0 for category in Category}
        metrics.update(
            {
                "dram.accesses.data_read": reads,
                "dram.accesses.data_write": writes,
                "dram.reads": reads,
                "dram.writes": writes,
                "dram.row_hits": 0,
                "dram.row_misses": 0,
                "dram.activations": 0,
                "dram.busy_cycles": 0,
                "dram.refresh_stalls": 0,
                "llc.hits": 0,
                "llc.misses": 0,
            }
        )
        for core in range(2):
            metrics[f"core.{core}.cycles"] = cycles
            metrics[f"core.{core}.instructions"] = 1000
        return SimResult(workload="w", design="d", metrics=metrics)

    def test_weighted_speedup(self):
        fast, slow = self._result(500), self._result(1000)
        assert weighted_speedup(fast, slow) == pytest.approx(2.0)

    def test_weighted_speedup_requires_same_traces(self):
        a = self._result(500)
        b = self._result(500)
        b.metrics["core.1.instructions"] = 999
        with pytest.raises(ValueError):
            weighted_speedup(a, b)

    def test_normalized_bandwidth(self):
        design = self._result(500, reads=60, writes=20)
        baseline = self._result(500, reads=80, writes=20)
        norm = normalized_bandwidth(design, baseline)
        assert norm["data_read"] == pytest.approx(0.6)
        assert sum(norm.values()) == pytest.approx(0.8)

    def test_l3_hit_rate(self):
        result = self._result(500)
        result.metrics["llc.hits"], result.metrics["llc.misses"] = 30, 70
        assert result.l3_hit_rate == pytest.approx(0.3)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_ipc_per_core(self):
        result = self._result(500)
        assert result.ipc_per_core == [2.0, 2.0]


class TestEnergy:
    def test_energy_positive(self):
        from repro.energy import energy_of

        result = simulate("lbm06", "uncompressed", CFG)
        report = energy_of(result)
        assert report.energy_nj > 0
        assert report.power_mw > 0
        assert report.edp > 0

    def test_relative_energy_speedup_consistent(self):
        from repro.energy import relative_energy

        base = simulate("lbm06", "uncompressed", CFG)
        ours = simulate("lbm06", "ideal", CFG)
        rel = relative_energy(ours, base)
        assert rel.speedup == pytest.approx(
            max(base.core_cycles) / max(ours.core_cycles)
        )
        # fewer DRAM accesses and shorter runtime => less energy
        if ours.total_dram_accesses < base.total_dram_accesses and rel.speedup > 1:
            assert rel.energy < 1.05

    def test_identical_runs_unity(self):
        from repro.energy import relative_energy

        base = simulate("lbm06", "uncompressed", CFG)
        rel = relative_energy(base, base)
        assert rel.speedup == pytest.approx(1.0)
        assert rel.energy == pytest.approx(1.0)
        assert rel.edp == pytest.approx(1.0)


class TestAnalysis:
    def test_format_table(self):
        from repro.analysis import format_table

        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_speedups(self):
        from repro.analysis import format_speedups

        text = format_speedups("t", {"w1": {"d1": 1.5}, "w2": {"d1": 0.9}})
        assert "w1" in text and "1.500" in text

    def test_format_bandwidth(self):
        from repro.analysis import format_bandwidth

        text = format_bandwidth("t", {"w": {"data_read": 0.5, "metadata_read": 0.2}})
        assert "total" in text and "0.700" in text

    def test_banner(self):
        from repro.analysis import banner

        assert "hello" in banner("hello")

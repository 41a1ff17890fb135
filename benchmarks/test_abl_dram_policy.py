"""Ablation: DRAM page policy and refresh (USIMM-substrate sensitivity).

PTMC's gain must not hinge on a favourable DRAM configuration: this
bench re-runs the comparison under closed-page mode and with refresh
disabled, checking the speedup survives each variation.
"""

from benchmarks.conftest import run_figure, save_results, speedup
from repro.analysis import banner, format_table

VARIANTS = {
    "open+refresh": {},
    "open-no-refresh": {"refresh": False},
    "closed+refresh": {"page_policy": "closed"},
    "closed-no-refresh": {"page_policy": "closed", "refresh": False},
}


def _ablation(config):
    configs = {name: config.with_(**overrides) for name, overrides in VARIANTS.items()}
    runs = run_figure(
        (workload, design, cfg)
        for cfg in configs.values()
        for workload in ("lbm06", "bfs.twitter")
        for design in ("dynamic_ptmc", "uncompressed")
    )
    return {
        name: {
            "spec_speedup": speedup(runs, "lbm06", "dynamic_ptmc", cfg),
            "gap_speedup": speedup(runs, "bfs.twitter", "dynamic_ptmc", cfg),
        }
        for name, cfg in configs.items()
    }


def test_ablation_dram_policy(config):
    rows = _ablation(config)
    print(banner("Ablation — DRAM page policy / refresh"))
    print(
        format_table(
            ["variant", "SPEC speedup", "GAP speedup"],
            [
                [name, f"{r['spec_speedup']:.3f}", f"{r['gap_speedup']:.3f}"]
                for name, r in rows.items()
            ],
        )
    )
    save_results("abl_dram_policy", rows)
    for name, r in rows.items():
        assert r["spec_speedup"] > 1.15, f"{name}: SPEC gain must survive"
        assert r["gap_speedup"] > 0.93, f"{name}: robustness must survive"
"""Ablation: Dynamic-PTMC counter width and sampling rate.

The decision must be stable across reasonable parameterizations: a SPEC
workload keeps compression on, a graph workload turns it off, regardless
of the exact counter width or sampled fraction.
"""

from benchmarks.conftest import run_figure, run_once, save_results, speedup
from repro.analysis import banner, format_table
from repro.sim.config import SamplingConfig

SWEEP = [
    {"counter_bits": 8, "sample_period": 4},
    {"counter_bits": 10, "sample_period": 4},
    {"counter_bits": 10, "sample_period": 8},
    {"counter_bits": 12, "sample_period": 4},
]


def _ablation(config):
    configs = {
        f"bits={params['counter_bits']},period={params['sample_period']}": config.with_(
            sampling=SamplingConfig(per_core=False, benefit_weight=3, **params)
        )
        for params in SWEEP
    }
    runs = run_figure(
        (workload, design, cfg)
        for cfg in configs.values()
        for workload in ("lbm06", "bfs.twitter")
        for design in ("dynamic_ptmc", "uncompressed")
    )

    def enabled(workload, cfg):
        return runs[workload, "dynamic_ptmc", cfg].metrics["policy.compression_enabled"]

    return {
        key: {
            "spec_speedup": speedup(runs, "lbm06", "dynamic_ptmc", cfg),
            "gap_speedup": speedup(runs, "bfs.twitter", "dynamic_ptmc", cfg),
            "spec_enabled": enabled("lbm06", cfg),
            "gap_enabled": enabled("bfs.twitter", cfg),
        }
        for key, cfg in configs.items()
    }


def test_ablation_dynamic_parameters(benchmark, config):
    rows = run_once(benchmark, lambda: _ablation(config))
    print(banner("Ablation — Dynamic-PTMC counter width / sampling rate"))
    print(
        format_table(
            ["params", "SPEC speedup", "GAP speedup", "SPEC on?", "GAP on?"],
            [
                [
                    k,
                    f"{r['spec_speedup']:.3f}",
                    f"{r['gap_speedup']:.3f}",
                    "on" if r["spec_enabled"] >= 0.5 else "off",
                    "on" if r["gap_enabled"] >= 0.5 else "off",
                ]
                for k, r in rows.items()
            ],
        )
    )
    save_results("abl_dynamic_params", rows)
    for key, r in rows.items():
        assert r["spec_speedup"] > 1.1, f"{key}: SPEC gain lost"
        assert r["gap_speedup"] > 0.93, f"{key}: GAP robustness lost"
        assert r["spec_enabled"] >= 0.5, f"{key}: compression wrongly disabled"

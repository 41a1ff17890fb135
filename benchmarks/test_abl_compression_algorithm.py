"""Ablation: compression algorithm under PTMC (paper §VII-A).

PTMC is orthogonal to the per-line compressor.  FPC alone, BDI alone,
the paper's FPC+BDI hybrid and an extended FPC+BDI+C-Pack stack all run
unchanged through the same controller; richer algorithm mixes co-locate
more groups and gain more.  Each stack is a ``SimConfig.compression``,
so each row is a plain runner identity; every row's baseline is the one
uncompressed run of the harness config.
"""

from benchmarks.conftest import run_figure, save_results
from repro.analysis import banner, format_table
from repro.sim.results import weighted_speedup

#: ``SimConfig.compression`` of each row
STACKS = {
    "fpc_only": ("fpc",),
    "bdi_only": ("bdi",),
    "fpc+bdi": ("fpc", "bdi"),
    "fpc+bdi+cpack": ("fpc", "bdi", "cpack"),
}


def _ablation(config):
    configs = {name: config.with_(compression=stack) for name, stack in STACKS.items()}
    runs = run_figure(
        [("lbm06", "uncompressed", config)]
        + [("lbm06", "static_ptmc", cfg) for cfg in configs.values()]
    )
    baseline = runs["lbm06", "uncompressed", config]
    rows = {}
    for name, cfg in configs.items():
        result = runs["lbm06", "static_ptmc", cfg]
        rows[name] = {
            "speedup": weighted_speedup(result, baseline),
            "l3_hit_rate": result.l3_hit_rate,
            "llp_accuracy": result.llp_accuracy or 0.0,
        }
    return rows


def test_ablation_compression_algorithm(config):
    rows = _ablation(config)
    print(banner("Ablation — compression algorithm under PTMC (§VII-A)"))
    print(
        format_table(
            ["algorithms", "speedup", "L3 hit", "LLP accuracy"],
            [
                [n, f"{r['speedup']:.3f}", f"{r['l3_hit_rate']:.1%}", f"{r['llp_accuracy']:.1%}"]
                for n, r in rows.items()
            ],
        )
    )
    save_results("abl_compression_algorithm", rows)
    # every stack is functional and beneficial on a compressible workload;
    # the hybrid dominates its components
    assert all(r["speedup"] > 1.0 for r in rows.values())
    assert rows["fpc+bdi"]["speedup"] >= rows["fpc_only"]["speedup"] - 0.03
    assert rows["fpc+bdi"]["speedup"] >= rows["bdi_only"]["speedup"] - 0.03

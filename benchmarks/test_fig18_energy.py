"""Figure 18: power, energy and EDP of Dynamic-PTMC vs uncompressed.

Fewer DRAM requests cut dynamic energy; the speedup cuts background
energy and EDP (paper: -5% energy, -10% EDP at paper scale).
"""

from benchmarks.conftest import run_figure, run_once, save_results
from repro.analysis import banner, format_table
from repro.energy import relative_energy
from repro.sim.results import geometric_mean
from repro.workloads import HIGH_MPKI


def _fig18(config):
    runs = run_figure(
        (workload, design, config)
        for workload in HIGH_MPKI
        for design in ("uncompressed", "dynamic_ptmc")
    )
    rows = {}
    for workload in HIGH_MPKI:
        rel = relative_energy(
            runs[workload.name, "dynamic_ptmc", config],
            runs[workload.name, "uncompressed", config],
        )
        rows[workload.name] = {
            "speedup": rel.speedup,
            "power": rel.power,
            "energy": rel.energy,
            "edp": rel.edp,
        }
    return rows


def test_fig18_energy(benchmark, config):
    rows = run_once(benchmark, lambda: _fig18(config))
    print(banner("Fig. 18 — Dynamic-PTMC energy metrics (normalized to baseline)"))
    print(
        format_table(
            ["workload", "speedup", "power", "energy", "EDP"],
            [
                [n, f"{r['speedup']:.3f}", f"{r['power']:.3f}", f"{r['energy']:.3f}", f"{r['edp']:.3f}"]
                for n, r in rows.items()
            ],
        )
    )
    save_results("fig18", rows)
    mean_energy = geometric_mean(r["energy"] for r in rows.values())
    mean_edp = geometric_mean(r["edp"] for r in rows.values())
    print(f"\ngeomean energy {mean_energy:.3f}, EDP {mean_edp:.3f}")
    # shapes: net energy and EDP improve on average; EDP improves more
    assert mean_energy < 1.0
    assert mean_edp < mean_energy

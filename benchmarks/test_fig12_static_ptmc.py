"""Figure 12: table-based TMC vs PTMC (inline metadata + LLP).

Eliminating the metadata lookup lifts both compressible and
incompressible workloads; graphs still lose under Static-PTMC (their
slowdown is the remaining inherent compression cost, Fig. 14).
"""

from benchmarks.conftest import JOBS, run_once, save_results
from repro.analysis import banner, format_speedups
from repro.sim.parallel import sweep_with_report
from repro.sim.results import geometric_mean
from repro.workloads import GAP, MEMORY_INTENSIVE, MIXES, SPEC06, SPEC17


def _fig12(config):
    speedups, _ = sweep_with_report(
        MEMORY_INTENSIVE, ["tmc_table", "static_ptmc"], config, jobs=JOBS
    )
    return speedups


def test_fig12_static_ptmc_vs_table(benchmark, config):
    speedups = run_once(benchmark, lambda: _fig12(config))
    print(banner("Fig. 12 — table-based TMC vs Static-PTMC (speedup)"))
    print(format_speedups("", speedups))
    save_results("fig12", speedups)

    def mean(workloads, design):
        return geometric_mean(speedups[w.name][design] for w in workloads)

    spec = SPEC06 + SPEC17
    print(
        f"\ngeomeans: SPEC table={mean(spec, 'tmc_table'):.3f} "
        f"ptmc={mean(spec, 'static_ptmc'):.3f} | "
        f"GAP table={mean(GAP, 'tmc_table'):.3f} "
        f"ptmc={mean(GAP, 'static_ptmc'):.3f} | "
        f"MIX table={mean(MIXES, 'tmc_table'):.3f} "
        f"ptmc={mean(MIXES, 'static_ptmc'):.3f}"
    )
    # shapes from the paper:
    assert mean(spec, "static_ptmc") > 1.05, "PTMC speeds up SPEC substantially"
    assert mean(spec, "static_ptmc") > mean(spec, "tmc_table")
    assert mean(GAP, "static_ptmc") > mean(GAP, "tmc_table"), (
        "PTMC removes the metadata bloat that cripples graphs"
    )
    assert mean(GAP, "static_ptmc") < 1.0, "graphs still lose under Static-PTMC"

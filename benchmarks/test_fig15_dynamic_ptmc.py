"""Figure 15: Static-PTMC vs Dynamic-PTMC vs Ideal TMC.

The headline result: Dynamic-PTMC keeps compression's gains where it
helps and disables it where it hurts, approaching the zero-overhead ideal
on average with (near) no slowdown anywhere.
"""

from benchmarks.conftest import JOBS, save_results
from repro.analysis import banner, format_speedups, hbar_chart
from repro.sim.parallel import sweep_with_report
from repro.sim.results import geometric_mean
from repro.workloads import GAP, MEMORY_INTENSIVE, SPEC06, SPEC17


def _fig15(config):
    matrix, _ = sweep_with_report(
        MEMORY_INTENSIVE,
        ["tmc_table", "static_ptmc", "dynamic_ptmc", "ideal"],
        config,
        jobs=JOBS,
    )
    return {
        name: {
            "tmc_table": row["tmc_table"],
            "static_ptmc": row["static_ptmc"],
            "dynamic_ptmc": row["dynamic_ptmc"],
            "ideal_tmc": row["ideal"],
        }
        for name, row in matrix.items()
    }


def test_fig15_dynamic_ptmc(config):
    speedups = _fig15(config)
    print(banner("Fig. 15 — Static-PTMC, Dynamic-PTMC and Ideal TMC (speedup)"))
    print(format_speedups("", speedups))
    save_results("fig15", speedups)

    def mean(workloads, design):
        return geometric_mean(speedups[w.name][design] for w in workloads)

    spec = SPEC06 + SPEC17
    all_mean = {
        d: geometric_mean(v[d] for v in speedups.values())
        for d in ("tmc_table", "static_ptmc", "dynamic_ptmc", "ideal_tmc")
    }
    print("\ngeomean speedups (| marks 1.0):")
    print(hbar_chart(all_mean, reference=1.0))

    # paper shapes:
    worst_dynamic = min(v["dynamic_ptmc"] for v in speedups.values())
    assert worst_dynamic > 0.93, "Dynamic-PTMC must be (close to) no-hurt"
    assert mean(GAP, "dynamic_ptmc") > mean(GAP, "static_ptmc"), (
        "Dynamic recovers the graph slowdown"
    )
    assert mean(spec, "dynamic_ptmc") > 1.05, "Dynamic keeps the SPEC gains"
    assert all_mean["ideal_tmc"] >= all_mean["dynamic_ptmc"] - 0.02
    # Dynamic lands a solid fraction of the idealized headroom
    ideal_gain = all_mean["ideal_tmc"] - 1.0
    dynamic_gain = all_mean["dynamic_ptmc"] - 1.0
    assert dynamic_gain > 0.4 * ideal_gain

"""Figure 17: Dynamic-PTMC speedup across the extended 64-workload set.

Sorted speedup curve over memory-intensive *and* cache-friendly
workloads: robust (no slowdowns beyond noise) with large gains on the
compressible, bandwidth-bound end.
"""

from benchmarks.conftest import JOBS, run_once, save_results
from repro.analysis import banner, format_table, sorted_curve
from repro.sim.parallel import sweep_with_report
from repro.workloads import ALL_64


def _fig17(config):
    matrix, _ = sweep_with_report(ALL_64, ["dynamic_ptmc"], config, jobs=JOBS)
    return {name: row["dynamic_ptmc"] for name, row in matrix.items()}


def test_fig17_all_64_workloads(benchmark, config):
    speedups = run_once(benchmark, lambda: _fig17(config))
    ordered = sorted(speedups.items(), key=lambda kv: kv[1])
    print(banner("Fig. 17 — Dynamic-PTMC speedup, 64 workloads, sorted"))
    print(
        format_table(
            ["workload", "speedup"], [[name, f"{value:.3f}"] for name, value in ordered]
        )
    )
    print("\nsorted-speedup curve (quantiles, | marks 1.0):")
    print(sorted_curve(speedups))
    save_results("fig17", speedups)
    values = [v for _, v in ordered]
    # paper shapes: robustness across the whole roster, gains at the top
    assert values[0] > 0.93, "no meaningful slowdown anywhere"
    assert values[-1] > 1.3, "large gains on the best workloads"
    flat = sum(1 for v in values if 0.97 <= v <= 1.03)
    assert flat >= 10, "many cache-friendly workloads are unaffected"

"""Figure 5: speedup of Ideal TMC (no metadata) vs TMC with metadata.

The paper's motivation plot: an idealized compressed memory gains
(12.3% average on SPEC at paper scale) while the same design paying
metadata lookups loses badly on graphs (up to 49% slowdown).
"""

from benchmarks.conftest import JOBS, save_results
from repro.analysis import banner, format_speedups
from repro.sim.parallel import sweep_with_report
from repro.sim.results import geometric_mean
from repro.workloads import GAP, HIGH_MPKI


def _fig05(config):
    matrix, _ = sweep_with_report(HIGH_MPKI, ["ideal", "tmc_table"], config, jobs=JOBS)
    return {
        name: {"ideal_tmc": row["ideal"], "tmc_with_metadata": row["tmc_table"]}
        for name, row in matrix.items()
    }


def test_fig05_ideal_vs_table(config):
    speedups = _fig05(config)
    print(banner("Fig. 5 — Ideal TMC vs table-based TMC (speedup over uncompressed)"))
    print(format_speedups("", speedups))
    ideal_mean = geometric_mean(v["ideal_tmc"] for v in speedups.values())
    table_mean = geometric_mean(v["tmc_with_metadata"] for v in speedups.values())
    print(f"\ngeomean: ideal={ideal_mean:.3f}  table={table_mean:.3f}")
    save_results("fig05", speedups)
    # shapes: ideal never loses; the table-based design loses on graphs
    assert all(v["ideal_tmc"] >= 0.98 for v in speedups.values())
    gap_table = [speedups[w.name]["tmc_with_metadata"] for w in GAP]
    assert min(gap_table) < 0.8, "metadata lookups should badly hurt graphs"
    assert ideal_mean > table_mean

"""Figure 9: metadata-cache hit-rate vs LLP prediction accuracy.

The paper's point: a 128-byte predictor finds the line's location on the
first access more often than a 32KB metadata cache can answer without a
memory access (98% vs the metadata cache's much lower hit rate).
"""

from benchmarks.conftest import run_figure, run_once, save_results
from repro.analysis import banner, format_table
from repro.workloads import HIGH_MPKI


def _fig09(config):
    runs = run_figure(
        (workload, design, config)
        for workload in HIGH_MPKI
        for design in ("tmc_table", "static_ptmc")
    )
    rows = {}
    for workload in HIGH_MPKI:
        table = runs[workload.name, "tmc_table", config]
        ptmc = runs[workload.name, "static_ptmc", config]
        rows[workload.name] = {
            "metadata_cache_hit": table.metadata_hit_rate or 0.0,
            "llp_accuracy": ptmc.llp_accuracy or 0.0,
        }
    return rows


def test_fig09_llp_vs_metadata_cache(benchmark, config):
    rows = run_once(benchmark, lambda: _fig09(config))
    print(banner("Fig. 9 — finding the line in one access: metadata cache vs LLP"))
    print(
        format_table(
            ["workload", "metadata-cache hit", "LLP accuracy"],
            [
                [n, f"{r['metadata_cache_hit']:.1%}", f"{r['llp_accuracy']:.1%}"]
                for n, r in rows.items()
            ],
        )
    )
    save_results("fig09", rows)
    avg_md = sum(r["metadata_cache_hit"] for r in rows.values()) / len(rows)
    avg_llp = sum(r["llp_accuracy"] for r in rows.values()) / len(rows)
    print(f"\naverage: metadata cache {avg_md:.1%}, LLP {avg_llp:.1%}")
    # shape: the tiny LLP beats the 32KB metadata cache on average and its
    # accuracy is high in absolute terms
    assert avg_llp > avg_md
    assert avg_llp > 0.85

"""Table II: workload characteristics (L3 MPKI, footprint) + data stats.

The paper's Table II defines which workloads count as memory intensive
(>= 5 L3 MPKI).  This bench regenerates the analog for the synthetic
roster and checks the roster's intended structure: every detailed-study
workload is memory-bound at the benchmark scale, graph footprints dwarf
SPEC's, and SPEC data compresses better than graph data.
"""

from benchmarks.conftest import run_figure, save_results
from repro.analysis import banner, format_table
from repro.workloads import GAP, MEMORY_INTENSIVE, SPEC06, SPEC17
from repro.workloads.characterize import characterize


def _tab02(config):
    runs = run_figure((workload, "uncompressed", config) for workload in MEMORY_INTENSIVE)
    rows = {}
    for workload in MEMORY_INTENSIVE:
        profile = characterize(
            workload, baseline=runs[workload.name, "uncompressed", config]
        )
        rows[workload.name] = {
            "suite": profile.suite,
            "l3_mpki": profile.l3_mpki,
            "footprint_mb": profile.footprint_mb,
            "mean_compressed_B": profile.mean_compressed_bytes,
            "pair_fit": profile.pair_fit_rate,
        }
    return rows


def test_tab02_workload_characteristics(config):
    rows = _tab02(config)
    print(banner("Table II — workload characteristics (scaled analog)"))
    print(
        format_table(
            ["workload", "suite", "L3 MPKI", "footprint MB", "mean comp. B", "pair fit"],
            [
                [
                    name,
                    r["suite"],
                    f"{r['l3_mpki']:.1f}",
                    f"{r['footprint_mb']:.1f}",
                    f"{r['mean_compressed_B']:.1f}",
                    f"{r['pair_fit']:.1%}",
                ]
                for name, r in rows.items()
            ],
        )
    )
    save_results("tab02", rows)
    # every detailed-study workload is memory intensive (paper: >= 5 MPKI)
    assert all(r["l3_mpki"] >= 5.0 for r in rows.values())
    spec_names = {w.name for w in SPEC06 + SPEC17}
    gap_names = {w.name for w in GAP}
    spec_fp = max(r["footprint_mb"] for n, r in rows.items() if n in spec_names)
    gap_fp = min(r["footprint_mb"] for n, r in rows.items() if n in gap_names)
    assert gap_fp > spec_fp, "graph footprints dominate, as in the paper"
    spec_size = sum(r["mean_compressed_B"] for n, r in rows.items() if n in spec_names)
    gap_size = sum(r["mean_compressed_B"] for n, r in rows.items() if n in gap_names)
    assert spec_size / len(spec_names) < gap_size / len(gap_names)

"""Table VI: next-line prefetching vs Dynamic-PTMC.

PTMC's neighbour installs look like prefetching but cost no bandwidth;
an actual next-line prefetcher pays an access per prefetch and *loses*
on bandwidth-bound workloads (paper: -5.7% SPEC, -21.1% GAP, -7.3% MIX
vs PTMC's +8.5% / 0.0% / +4.2%).
"""

from benchmarks.conftest import JOBS, save_results
from repro.analysis import banner, format_table
from repro.sim.parallel import sweep_with_report
from repro.sim.results import geometric_mean
from repro.workloads import GAP, MIXES, SPEC06, SPEC17

SUITES = {"SPEC": SPEC06 + SPEC17, "GAP": GAP, "MIX": MIXES}


def _tab06(config):
    matrix, _ = sweep_with_report(
        [w for workloads in SUITES.values() for w in workloads],
        ["prefetch", "dynamic_ptmc"],
        config,
        jobs=JOBS,
    )
    return {
        suite: {
            "nextline_prefetch": geometric_mean(matrix[w.name]["prefetch"] for w in workloads),
            "dynamic_ptmc": geometric_mean(matrix[w.name]["dynamic_ptmc"] for w in workloads),
        }
        for suite, workloads in SUITES.items()
    }


def test_tab06_prefetch_comparison(config):
    rows = _tab06(config)
    print(banner("Table VI — next-line prefetch vs Dynamic-PTMC (speedup)"))
    print(
        format_table(
            ["suite", "next-line prefetch", "dynamic_ptmc"],
            [
                [s, f"{r['nextline_prefetch']:.3f}", f"{r['dynamic_ptmc']:.3f}"]
                for s, r in rows.items()
            ],
        )
    )
    save_results("tab06", rows)
    # shapes: prefetching loses everywhere (extra bandwidth); PTMC never does
    assert all(r["nextline_prefetch"] < 1.0 for r in rows.values())
    assert all(r["dynamic_ptmc"] > r["nextline_prefetch"] for r in rows.values())
    assert rows["GAP"]["nextline_prefetch"] < rows["SPEC"]["nextline_prefetch"], (
        "prefetching hurts graphs the most"
    )

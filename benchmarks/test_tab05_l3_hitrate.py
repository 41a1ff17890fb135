"""Table V: L3 hit-rate, baseline vs Dynamic-PTMC.

The co-fetched lines installed in L3 are useful: SPEC's L3 hit rate
rises markedly (17.3% -> 23.9% in the paper), graphs are untouched.
"""

from benchmarks.conftest import run_figure, save_results
from repro.analysis import banner, format_table
from repro.workloads import GAP, MIXES, SPEC06, SPEC17

SUITES = {"SPEC": SPEC06 + SPEC17, "GAP": GAP, "MIX": MIXES}


def _tab05(config):
    runs = run_figure(
        (workload, design, config)
        for workloads in SUITES.values()
        for workload in workloads
        for design in ("uncompressed", "dynamic_ptmc")
    )
    rows = {}
    for suite, workloads in SUITES.items():
        base = [runs[w.name, "uncompressed", config].l3_hit_rate for w in workloads]
        ptmc = [runs[w.name, "dynamic_ptmc", config].l3_hit_rate for w in workloads]
        rows[suite] = {
            "baseline": sum(base) / len(base),
            "dynamic_ptmc": sum(ptmc) / len(ptmc),
        }
    return rows


def test_tab05_l3_hit_rate(config):
    rows = _tab05(config)
    print(banner("Table V — L3 hit rate: baseline vs Dynamic-PTMC"))
    print(
        format_table(
            ["suite", "baseline", "dynamic_ptmc"],
            [
                [s, f"{r['baseline']:.1%}", f"{r['dynamic_ptmc']:.1%}"]
                for s, r in rows.items()
            ],
        )
    )
    save_results("tab05", rows)
    # shapes: big improvement on SPEC; no damage to GAP
    assert rows["SPEC"]["dynamic_ptmc"] > rows["SPEC"]["baseline"] + 0.05
    assert rows["GAP"]["dynamic_ptmc"] >= rows["GAP"]["baseline"] - 0.02
    assert rows["MIX"]["dynamic_ptmc"] >= rows["MIX"]["baseline"]

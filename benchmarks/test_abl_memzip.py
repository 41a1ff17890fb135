"""Extension: PTMC vs MemZip-style TMC (paper §I, §II-B).

MemZip obtains TMC on *non-commodity* DIMMs: variable burst lengths cut
each access's bus time, but there is no neighbour co-fetch and a
metadata table must be consulted before every read.  The paper's claim
is that PTMC achieves transparent compression on commodity parts without
giving anything up — so Dynamic-PTMC should at least match the
non-commodity design on compressible workloads and beat it where
MemZip's metadata traffic bites.
"""

from benchmarks.conftest import run_figure, run_once, save_results, speedup
from repro.analysis import banner, format_table

WORKLOADS = ["lbm06", "libquantum06", "soplex06", "mcf06", "bfs.twitter", "pr.web"]


def _comparison(config):
    runs = run_figure(
        (workload, design, config)
        for workload in WORKLOADS
        for design in ("memzip", "dynamic_ptmc", "uncompressed")
    )
    return {
        workload: {
            "memzip": speedup(runs, workload, "memzip", config),
            "dynamic_ptmc": speedup(runs, workload, "dynamic_ptmc", config),
            "memzip_md_hit": runs[workload, "memzip", config].metadata_hit_rate or 0.0,
        }
        for workload in WORKLOADS
    }


def test_memzip_comparison(benchmark, config):
    rows = run_once(benchmark, lambda: _comparison(config))
    print(banner("Extension — MemZip (non-commodity) vs Dynamic-PTMC (commodity)"))
    print(
        format_table(
            ["workload", "memzip", "dynamic_ptmc", "memzip metadata hit"],
            [
                [w, f"{r['memzip']:.3f}", f"{r['dynamic_ptmc']:.3f}", f"{r['memzip_md_hit']:.1%}"]
                for w, r in rows.items()
            ],
        )
    )
    save_results("abl_memzip", rows)
    spec = [w for w in WORKLOADS if "." not in w]
    gap = [w for w in WORKLOADS if "." in w]
    # commodity PTMC is competitive with the non-commodity design on SPEC
    spec_wins = sum(rows[w]["dynamic_ptmc"] >= rows[w]["memzip"] - 0.05 for w in spec)
    assert spec_wins >= len(spec) - 1
    # and strictly more robust on graphs (MemZip pays metadata, PTMC bails out)
    for w in gap:
        assert rows[w]["dynamic_ptmc"] >= rows[w]["memzip"] - 0.02

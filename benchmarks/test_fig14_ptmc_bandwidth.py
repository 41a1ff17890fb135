"""Figure 14: PTMC bandwidth breakdown, normalized to uncompressed.

With metadata eliminated, what remains is data traffic, LLP-misprediction
second accesses, and the inherent cost of compression: clean (compressed)
writebacks plus invalidate writes — dominant on graphs, which motivates
Dynamic-PTMC.
"""

from benchmarks.conftest import run_figure, save_results
from repro.analysis import banner, format_bandwidth, stacked_chart
from repro.sim.results import normalized_bandwidth
from repro.workloads import MEMORY_INTENSIVE


def _fig14(config):
    runs = run_figure(
        (workload, design, config)
        for workload in MEMORY_INTENSIVE
        for design in ("uncompressed", "static_ptmc")
    )
    stacks = {}
    for workload in MEMORY_INTENSIVE:
        norm = normalized_bandwidth(
            runs[workload.name, "static_ptmc", config],
            runs[workload.name, "uncompressed", config],
        )
        stacks[workload.name] = {
            "data": norm.get("data_read", 0.0) + norm.get("data_write", 0.0),
            "clean_evict_inv": norm.get("clean_writeback", 0.0)
            + norm.get("invalidate_write", 0.0),
            "llp_mispredict": norm.get("mispredict_read", 0.0),
        }
    return stacks


def test_fig14_ptmc_bandwidth(config):
    stacks = _fig14(config)
    print(banner("Fig. 14 — PTMC bandwidth breakdown (normalized to uncompressed)"))
    print(format_bandwidth("", stacks))
    print("\nstacked view (| marks the uncompressed baseline):")
    print(stacked_chart(stacks))
    save_results("fig14", stacks)
    spec = {k: v for k, v in stacks.items() if "." not in k and not k.startswith("mix")}
    gap = {k: v for k, v in stacks.items() if "." in k}
    spec_total = sum(sum(v.values()) for v in spec.values()) / len(spec)
    gap_overhead = sum(v["clean_evict_inv"] for v in gap.values()) / len(gap)
    # shapes: SPEC saves net bandwidth; graphs pay a visible
    # clean-evict+invalidate overhead
    assert spec_total < 1.0, "PTMC reduces total SPEC traffic"
    assert gap_overhead > 0.0
    # mispredict traffic is a small slice everywhere (LLP works)
    assert all(v["llp_mispredict"] < 0.2 for v in stacks.values())

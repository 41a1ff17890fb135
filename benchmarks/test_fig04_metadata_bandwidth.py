"""Figure 4: bandwidth of table-based TMC, normalized to uncompressed.

The paper's stack splits traffic into data, additional (clean) writes and
metadata; metadata alone can exceed 50% extra bandwidth on graph
workloads, which is the motivation for inline metadata.
"""

from benchmarks.conftest import run_figure, save_results
from repro.analysis import banner, format_bandwidth
from repro.sim.results import normalized_bandwidth
from repro.workloads import HIGH_MPKI


def _fig04(config):
    runs = run_figure(
        (workload, design, config)
        for workload in HIGH_MPKI
        for design in ("uncompressed", "tmc_table")
    )
    stacks = {}
    for workload in HIGH_MPKI:
        norm = normalized_bandwidth(
            runs[workload.name, "tmc_table", config],
            runs[workload.name, "uncompressed", config],
        )
        stacks[workload.name] = {
            "data": norm.get("data_read", 0.0) + norm.get("data_write", 0.0),
            "additional_writes": norm.get("clean_writeback", 0.0)
            + norm.get("maintenance", 0.0),
            "metadata": norm.get("metadata_read", 0.0)
            + norm.get("metadata_write", 0.0),
        }
    return stacks


def test_fig04_metadata_bandwidth(config):
    stacks = _fig04(config)
    print(banner("Fig. 4 — table-based TMC bandwidth (normalized to uncompressed)"))
    print(format_bandwidth("", stacks))
    save_results("fig04", stacks)
    # shape: metadata is a visible overhead overall, and is worst on graphs
    gap_meta = [v["metadata"] for k, v in stacks.items() if "." in k]
    spec_meta = [v["metadata"] for k, v in stacks.items() if "." not in k]
    assert max(gap_meta) > 0.3, "graph workloads should pay heavy metadata traffic"
    assert sum(gap_meta) / len(gap_meta) > sum(spec_meta) / len(spec_meta)

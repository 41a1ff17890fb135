#!/usr/bin/env python
"""Graph analytics: why Dynamic-PTMC exists.

Graph workloads (GAP-like: irregular access, poor reuse, mostly
incompressible data) are the paper's hard case — compressing memory for
them costs bandwidth (clean writebacks, invalidates) that is never repaid
by useful co-fetches.  This example shows the three-way contrast on a
graph workload and a SPEC-like workload:

- table-based TMC collapses (metadata-cache thrashing),
- Static-PTMC still loses a little (inherent compression cost),
- Dynamic-PTMC observes the cost/benefit on sampled sets, switches
  compression off, and recovers to ~baseline performance, while keeping
  the full benefit where compression wins.

Usage::

    python examples/graph_analytics.py
"""

from repro import bench_config, compare, simulate
from repro.analysis import banner, format_table


def main() -> None:
    config = bench_config(ops_per_core=4000, warmup_ops=6000)
    workloads = ["bfs.twitter", "pr.web", "lbm06"]
    designs = ["tmc_table", "static_ptmc", "dynamic_ptmc"]

    print(banner("Graph analytics vs compression (paper §V)"))
    rows = []
    for workload in workloads:
        row = [workload]
        for design in designs:
            row.append(f"{compare(workload, design, config):.3f}")
        result = simulate(workload, "dynamic_ptmc", config)
        enabled = result.metrics["policy.compression_enabled"]
        row.append("on" if enabled >= 0.5 else "off")
        rows.append(row)
    print(format_table(["workload"] + designs + ["dynamic decision"], rows))

    print("\nDynamic-PTMC's utility counter per workload:")
    for workload in workloads:
        result = simulate(workload, "dynamic_ptmc", config)
        print(
            f"  {workload:14s} benefits={result.metrics['policy.benefits']:>6.0f}"
            f"  costs={result.metrics['policy.costs']:>6.0f}"
        )
    print(
        "\nBecause PTMC's metadata is inline, disabling compression requires"
        "\nno global decompression — old compressed groups remain readable."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: compare memory-compression designs on one workload.

Runs a SPEC-like benchmark (``lbm06``) on every design the paper studies
and prints weighted speedup over uncompressed memory plus the headline
diagnostics (L3 hit rate, DRAM traffic, LLP accuracy).

Usage::

    python examples/quickstart.py [workload]
"""

import sys

from repro import DESIGNS, bench_config, simulate, weighted_speedup
from repro.analysis import banner, format_table


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "lbm06"
    config = bench_config(ops_per_core=4000, warmup_ops=5000)

    print(banner(f"PTMC quickstart — workload: {workload}"))
    baseline = simulate(workload, "uncompressed", config)
    print(
        f"baseline: {baseline.elapsed_cycles} cycles, "
        f"{baseline.total_dram_accesses} DRAM accesses, "
        f"L3 hit rate {baseline.l3_hit_rate:.1%}"
    )

    rows = []
    for design in DESIGNS:
        if design == "uncompressed":
            continue
        result = simulate(workload, design, config)
        rows.append(
            [
                design,
                f"{weighted_speedup(result, baseline):.3f}",
                f"{result.l3_hit_rate:.1%}",
                result.total_dram_accesses,
                f"{result.llp_accuracy:.1%}" if result.llp_accuracy is not None else "-",
            ]
        )
    print()
    print(
        format_table(
            ["design", "speedup", "L3 hit", "DRAM accesses", "LLP accuracy"], rows
        )
    )
    print(
        "\nPTMC obtains compression's bandwidth benefit with inline markers"
        "\n(no metadata traffic); 'ideal' is the zero-overhead upper bound."
    )


if __name__ == "__main__":
    main()

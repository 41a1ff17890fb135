#!/usr/bin/env python
"""Compare cache-line compression algorithms on realistic data families.

PTMC is orthogonal to the compression algorithm (paper §VII-A).  This
example measures FPC, BDI, C-Pack and the FPC+BDI hybrid on the synthetic
data families the workloads use, and reports how often a pair / quad of
neighbour lines fits one 64-byte slot under each algorithm — the quantity
that decides PTMC's co-location rate (paper Fig. 6).

Usage::

    python examples/compression_algorithms.py
"""

from repro.analysis import banner, format_table
from repro.compression import BDI, CPack, FPC, HybridCompressor
from repro.core.packing import compress_group
from repro.types import Level
from repro.workloads import DataGenerator, DataProfile, PatternKind
from repro.workloads.data_patterns import GRAPH_LIKE, SPEC_LIKE

FAMILIES = {
    "zero": DataProfile({PatternKind.ZERO: 1.0}, noise=0.0),
    "small_int": DataProfile({PatternKind.SMALL_INT: 1.0}, noise=0.0),
    "pointer": DataProfile({PatternKind.POINTER: 1.0}, noise=0.0),
    "medium": DataProfile({PatternKind.MEDIUM: 1.0}, noise=0.0),
    "random": DataProfile({PatternKind.RANDOM: 1.0}, noise=0.0),
    "spec_mix": SPEC_LIKE,
    "graph_mix": GRAPH_LIKE,
}

ALGORITHMS = {
    "fpc": FPC(),
    "bdi": BDI(),
    "cpack": CPack(),
    "hybrid": HybridCompressor(),
}

SAMPLES = 400
MARKER = b"\x00\x00\x00\x00"


def mean_size(algorithm, generator):
    total = 0
    for vline in range(SAMPLES):
        total += algorithm.compressed_size(generator.line(vline))
    return total / SAMPLES


def group_fit_rate(algorithm, generator, level):
    fits = 0
    trials = SAMPLES // int(level)
    for start in range(0, trials * int(level), int(level)):
        lines = [generator.line(start + i) for i in range(int(level))]
        if compress_group(algorithm, lines, MARKER) is not None:
            fits += 1
    return fits / trials


def main() -> None:
    print(banner("Per-line compressed size (bytes, lower is better)"))
    rows = []
    for family, profile in FAMILIES.items():
        generator = DataGenerator(profile, seed=11)
        rows.append(
            [family]
            + [f"{mean_size(alg, generator):.1f}" for alg in ALGORITHMS.values()]
        )
    print(format_table(["family"] + list(ALGORITHMS), rows))

    print(banner("Neighbour-group co-location rate under the hybrid (Fig. 6)"))
    hybrid = ALGORITHMS["hybrid"]
    rows = []
    for family, profile in FAMILIES.items():
        generator = DataGenerator(profile, seed=13)
        rows.append(
            [
                family,
                f"{group_fit_rate(hybrid, generator, Level.PAIR):.0%}",
                f"{group_fit_rate(hybrid, generator, Level.QUAD):.0%}",
            ]
        )
    print(format_table(["family", "2:1 fits", "4:1 fits"], rows))
    print(
        "\nPointers pair up (BDI) but never quad; sparse integers quad (FPC);"
        "\nmedium-entropy lines compress alone but not together — exactly the"
        "\nmix that exercises every path of the TMC address mapping."
    )


if __name__ == "__main__":
    main()

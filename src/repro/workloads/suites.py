"""The named workload roster (paper §III-B, Table II).

The paper evaluates 27 memory-intensive workloads — SPEC 2006/2017 rate
mode, GAP graph analytics, and 6 MIXes — plus enough low-MPKI fillers to
reach 64 workloads for the extended study (Fig. 17).  The exact traces
are not available (DESIGN.md §4), so each name below is a synthetic spec
whose locality/compressibility parameters are tuned to the behavioural
class the paper reports for that kind of benchmark:

- SPEC-like: compressible data, strong spatial locality and reuse;
- GAP-like (suffix ``.twitter/.web/.sk``): irregular access, large
  footprint, poor reuse, mostly incompressible data;
- MIXes: random pairings of the above across the 8 cores.

Workload naming keeps the paper's flavour (e.g. ``lbm06``, ``bfs.twitter``)
without claiming instruction-level equivalence to the real programs.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.workloads.generators import (
    MixWorkload,
    WorkloadSpec,
    graph_like,
    low_mpki,
    make_mix,
    spec_like,
)

Workload = Union[WorkloadSpec, MixWorkload]

# --- SPEC 2006-like (high MPKI) -------------------------------------------

SPEC06: List[WorkloadSpec] = [
    spec_like("lbm06", seq_frac=0.75, write_frac=0.35, footprint_lines=2048, seed=11),
    spec_like("mcf06", seq_frac=0.35, reuse_frac=0.30, hot_lines=2048,
              footprint_lines=3072, write_scramble=0.02, seed=12),
    spec_like("milc06", seq_frac=0.68, write_frac=0.30, footprint_lines=2048, seed=13),
    spec_like("libquantum06", seq_frac=0.85, run_length=64, write_frac=0.20,
              footprint_lines=1536, seed=14),
    spec_like("soplex06", seq_frac=0.55, reuse_frac=0.25, footprint_lines=2048, seed=15),
    spec_like("omnetpp06", seq_frac=0.40, reuse_frac=0.30, hot_lines=1536,
              footprint_lines=2048, write_scramble=0.015, seed=16),
    spec_like("gcc06", seq_frac=0.58, write_frac=0.22, footprint_lines=2048, seed=17),
]

# --- SPEC 2017-like (high MPKI) -------------------------------------------

SPEC17: List[WorkloadSpec] = [
    spec_like("lbm17", "spec17", seq_frac=0.78, write_frac=0.35,
              footprint_lines=2560, seed=21),
    spec_like("mcf17", "spec17", seq_frac=0.38, reuse_frac=0.28, hot_lines=2048,
              footprint_lines=3072, write_scramble=0.02, seed=22),
    spec_like("cam417", "spec17", seq_frac=0.60, write_frac=0.28,
              footprint_lines=2048, seed=23),
    spec_like("fotonik17", "spec17", seq_frac=0.80, run_length=48,
              footprint_lines=2048, seed=24),
    spec_like("roms17", "spec17", seq_frac=0.70, write_frac=0.30,
              footprint_lines=2048, seed=25),
]

# --- GAP-like graph analytics ----------------------------------------------

GAP: List[WorkloadSpec] = [
    graph_like("bfs.twitter", seed=31),
    graph_like("pr.twitter", write_frac=0.25, seed=32),
    graph_like("cc.twitter", seed=33),
    graph_like("bfs.web", footprint_lines=56 * 1024, seq_frac=0.12, seed=34),
    graph_like("pr.web", footprint_lines=56 * 1024, write_frac=0.25, seed=35),
    graph_like("cc.web", footprint_lines=56 * 1024, seed=36),
    graph_like("bfs.sk", footprint_lines=80 * 1024, seed=37),
    graph_like("pr.sk", footprint_lines=80 * 1024, write_frac=0.22, seed=38),
    graph_like("tc.sk", footprint_lines=80 * 1024, write_frac=0.10, seed=39),
]

# --- MIX workloads (random SPEC+GAP pairings, paper's mix1..mix6) -----------

MIXES: List[MixWorkload] = [
    make_mix("mix1", [SPEC06[0], GAP[0], SPEC06[2], GAP[3]] * 2, seed=41),
    make_mix("mix2", [SPEC06[1], SPEC17[0], GAP[1], SPEC06[4]] * 2, seed=42),
    make_mix("mix3", [GAP[4], SPEC17[1], SPEC06[5], SPEC17[3]] * 2, seed=43),
    make_mix("mix4", [SPEC06[3], GAP[6], SPEC17[2], GAP[8]] * 2, seed=44),
    make_mix("mix5", [SPEC17[4], SPEC06[6], GAP[2], SPEC06[0]] * 2, seed=45),
    make_mix("mix6", [GAP[5], SPEC06[2], GAP[7], SPEC17[0]] * 2, seed=46),
]

HIGH_MPKI: List[Workload] = [*SPEC06, *SPEC17, *GAP]
MEMORY_INTENSIVE: List[Workload] = [*HIGH_MPKI, *MIXES]

# --- Low-MPKI fillers to reach the 64-workload extended set (Fig. 17) -------

_LOW_NAMES_06 = [
    "perlbench06", "bzip206", "gobmk06", "hmmer06", "sjeng06", "h264ref06",
    "astar06", "xalancbmk06", "namd06", "dealII06", "povray06", "calculix06",
    "gemsfdtd06", "tonto06", "wrf06", "sphinx306", "zeusmp06", "cactus06",
    "gromacs06", "leslie3d06", "bwaves06", "gamess06",
]
_LOW_NAMES_17 = [
    "perlbench17", "gcc17", "omnetpp17", "xalancbmk17", "x26417",
    "deepsjeng17", "leela17", "exchange217", "xz17", "wrf17",
    "blender17", "cactuBSSN17", "namd17", "parest17", "povray17",
]

LOW_MPKI: List[WorkloadSpec] = [
    low_mpki(name, seed=100 + i) for i, name in enumerate(_LOW_NAMES_06)
] + [
    low_mpki(name, seed=200 + i, footprint_lines=1536) for i, name in enumerate(_LOW_NAMES_17)
]

ALL_64: List[Workload] = (MEMORY_INTENSIVE + LOW_MPKI)[:64]

BY_NAME: Dict[str, Workload] = {w.name: w for w in MEMORY_INTENSIVE + LOW_MPKI}

#: Suite-name -> roster registry (the CLI and search drivers share it).
SUITE_BY_NAME: Dict[str, List[Workload]] = {
    "spec06": SPEC06,
    "spec17": SPEC17,
    "gap": GAP,
    "mix": MIXES,
    "memory_intensive": MEMORY_INTENSIVE,
    "all64": ALL_64,
}


def get_workload(name: str) -> Workload:
    """Look up a workload spec by its roster name."""
    try:
        return BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(BY_NAME)}"
        ) from None

"""Simulation configuration.

Two preset scales are provided:

- :func:`paper_config` — the paper's Table I parameters (8MB L3, 32KB
  metadata cache, 16GB memory).  Faithful, but needs billion-instruction
  traces to warm up, which a pure-Python simulator cannot run.
- :func:`bench_config` — a scaled-down system (256 KB L3, 4 KB metadata
  cache) sized against the synthetic traces' footprints so that cache
  pressure, metadata-cache reach and bandwidth saturation sit in the same
  regimes as the paper's full-size system; unlike the paper's, its L3 is
  smaller than the private L2s together.  All benchmarks use this scale
  (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Annotated, Tuple

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.replacement import DEFAULT_POLICY, POLICIES
from repro.compression import ALGORITHMS
from repro.core.metadata_table import MetadataTableConfig
from repro.core.ptmc import PTMCConfig
from repro.dram.timing import DDRTiming, DRAMGeometry
from repro.util.schema import Checked, Rule


@dataclass(frozen=True)
class SamplingConfig(Checked):
    """Dynamic-PTMC sampling parameters (paper §V-A)."""

    counter_bits: int = 12
    sample_period: int = 128  # 1% of sets
    per_core: bool = True
    benefit_weight: int = 1


@dataclass(frozen=True)
class SimConfig(Checked):
    """Everything needed to instantiate one simulated system."""

    num_cores: int = 8
    width: int = 4
    mlp: int = 8
    ops_per_core: Annotated[int, Rule(least=1)] = 6_000
    warmup_ops: Annotated[int, Rule(least=0)] = 8_000
    """Per-core operations run before statistics collection starts — the
    stand-in for the paper's PinPoints warmup: compaction of the resident
    working set is a one-time cost the paper's billion-instruction runs
    amortise away, so it must not dominate short synthetic traces."""
    capacity_lines: int = 1 << 22  # 256MB of 64-byte lines
    batch_chunk: int = 1024
    """Trace records pre-decoded per block so compressed sizes can be
    precomputed by the vectorized batch kernel; ``0`` replays the scalar
    per-record path (the reference the golden tests compare against).
    Either value produces bitwise-identical results, so the knob is left
    out of the disk-cache key (``diskcache.config_identity``)."""
    seed: int = 0
    page_policy: str = "open"
    refresh: bool = True
    llc_policy: Annotated[str, Rule(choices=POLICIES)] = DEFAULT_POLICY
    """The shared L3's replacement policy, a name from
    ``repro.cache.replacement.POLICIES`` (``lru``/``fifo``/``random``/
    ``srrip``/``pref_lru``); the private L1s and L2s always run LRU.  The
    only replacement-policy knob, so two runs differing only in it never
    share a stored result, and the default and an explicit ``"lru"`` are
    one identity."""
    compression: Annotated[Tuple[str, ...], Rule(least=1, choices=ALGORITHMS)] = ("fpc", "bdi")
    """The algorithms (``repro.compression.ALGORITHMS`` names, in tag
    order) whose smallest payload each line is stored as, by every design
    that compresses: ``tmc_table``, ``memzip``, ``ideal`` and PTMC.  The
    paper's stack is FPC+BDI (§III-A); the compression ablation runs
    others (§VII-A)."""
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    timing: DDRTiming = field(default_factory=DDRTiming)
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    metadata: MetadataTableConfig = field(default_factory=MetadataTableConfig)
    ptmc: PTMCConfig = field(default_factory=PTMCConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def with_(self, **overrides) -> "SimConfig":
        """Functional update (the config is frozen)."""
        return replace(self, **overrides)


def _preset(overrides, **scale) -> SimConfig:
    """``SimConfig(**scale)`` with ``overrides`` in place of any of its
    fields: one construction, and one check."""
    return SimConfig(**{**scale, **overrides})


def paper_config(**overrides) -> SimConfig:
    """Paper Table I scale (impractically large for Python traces)."""
    return _preset(
        overrides,
        capacity_lines=1 << 28,  # 16GB
        hierarchy=HierarchyConfig(),  # 8MB L3 etc.
    )


def bench_config(**overrides) -> SimConfig:
    """Benchmark scale: 16 KB L1s and 64 KB L2s per core, a 256 KB shared
    L3, a 4 KB metadata cache, short traces.

    The L3 is half the eight L2s' 512 KB total, where the paper's Table I
    has it four times their total.  Workload footprints exceed the L3 (a
    SPEC workload's 8 cores about 4x, a GAP one's over 100x), so runs are
    memory-bound, and the metadata cache's reach (16K data lines) is about
    a SPEC footprint (mostly hits) but about 1/32 of a GAP one (thrashes)
    — the same regimes as 32KB vs GB-scale footprints at paper scale.
    ``perfbench``'s result digests pin every value here.
    """
    return _preset(
        overrides,
        hierarchy=HierarchyConfig(
            l1_bytes=16 * 1024,
            l2_bytes=64 * 1024,
            l3_bytes=256 * 1024,
        ),
        metadata=MetadataTableConfig(cache_bytes=4 * 1024),
        # counter width and sampling rate scale with the shortened traces:
        # the decision dynamics (saturate up under benefit, drain under
        # cost) match the paper's 12-bit / 1% values at full scale
        sampling=SamplingConfig(counter_bits=8, sample_period=4, per_core=True, benefit_weight=3),
    )


def quick_config(**overrides) -> SimConfig:
    """A very small system for unit/integration tests (fast, still 8-core)."""
    return _preset(
        overrides,
        ops_per_core=2_000,
        capacity_lines=1 << 18,
        hierarchy=HierarchyConfig(
            l1_bytes=4 * 1024,
            l2_bytes=16 * 1024,
            l3_bytes=64 * 1024,
        ),
        metadata=MetadataTableConfig(cache_bytes=1 * 1024),
        sampling=SamplingConfig(counter_bits=6, sample_period=4, per_core=True, benefit_weight=3),
    )

"""Workload characterisation (the paper's Table II analog).

The paper summarises each workload by its L3 MPKI and memory footprint.
For the synthetic roster we measure the same quantities from a baseline
simulation plus two properties the paper's mechanisms care about but its
table leaves implicit: the average compressed line size and the fraction
of adjacent pairs that co-compress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.compression.base import LINE_SIZE
from repro.compression.hybrid import HybridCompressor
from repro.core.packing import payload_budget
from repro.types import Level
from repro.workloads.generators import MixWorkload, WorkloadTraceGenerator


@dataclass(frozen=True)
class WorkloadProfile:
    """Measured characteristics of one workload."""

    name: str
    suite: str
    l3_mpki: float
    footprint_mb: float
    mean_compressed_bytes: float
    pair_fit_rate: float

    @property
    def memory_intensive(self) -> bool:
        """The paper's detailed-evaluation cut: at least 5 MPKI."""
        return self.l3_mpki >= 5.0


def _spec_for_stats(workload):
    """A representative per-core spec (core 0 for mixes)."""
    if isinstance(workload, MixWorkload):
        return workload.spec_for_core(0)
    return workload


def data_statistics(workload, samples: int = 512, seed_core: int = 0):
    """(mean compressed size, pair co-compression rate) of a workload's data."""
    spec = _spec_for_stats(workload)
    generator = WorkloadTraceGenerator(spec, seed_core)
    hybrid = HybridCompressor()
    total = 0
    fits = 0
    pairs = 0
    budget = payload_budget(Level.PAIR)
    stride = max(2, (spec.footprint_lines // samples) & ~1)
    for index in range(samples):
        base = (index * stride) % (spec.footprint_lines - 1) & ~1
        sizes = []
        for offset in range(2):
            line = generator.data.line(base + offset)
            payload = hybrid.compress(line)
            size = LINE_SIZE if payload is None else len(payload)
            total += size
            sizes.append(size)
        pairs += 1
        if sum(sizes) <= budget:
            fits += 1
    return total / (samples * 2), fits / pairs


def footprint_mb(workload, num_cores: int = 8) -> float:
    """Aggregate memory footprint across all cores, in megabytes."""
    if isinstance(workload, MixWorkload):
        lines = sum(
            workload.spec_for_core(core).footprint_lines for core in range(num_cores)
        )
    else:
        lines = workload.footprint_lines * num_cores
    return lines * LINE_SIZE / 1e6


def reuse_distance_histogram(
    addresses: Iterable[int], max_records: int = 200_000
) -> Dict[str, int]:
    """Exact LRU stack-distance histogram of an address stream.

    The reuse distance of an access is the number of *distinct* lines
    touched since the previous access to the same line — the classic
    locality fingerprint (an access hits in a fully-associative LRU
    cache of C lines iff its reuse distance is < C).  Distances are
    bucketed by power of two (``"1"``, ``"2"``, ``"4"``, ...); first
    touches land in ``"cold"``.

    Uses the Bennett–Kruskal Fenwick-tree formulation: O(n log n) time,
    O(n) space.  ``max_records`` caps the work for very long traces
    (the prefix is characterised; 0 means no cap).
    """
    stream = list(addresses if max_records <= 0 else _take(addresses, max_records))
    n = len(stream)
    # Fenwick tree over access positions; marked positions are the
    # *latest* occurrence so far of each distinct line.
    tree = [0] * (n + 1)

    def _add(pos: int, delta: int) -> None:
        pos += 1
        while pos <= n:
            tree[pos] += delta
            pos += pos & -pos

    def _prefix(pos: int) -> int:
        # marked positions in [0, pos)
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    histogram: Dict[str, int] = {}
    last_seen: Dict[int, int] = {}
    marked = 0
    for position, line in enumerate(stream):
        previous = last_seen.get(line)
        if previous is None:
            bucket = "cold"
        else:
            # distinct lines since the previous access = marked
            # latest-occurrence positions strictly after it, plus the
            # line itself (so an immediate re-access has distance 1)
            distance = marked - _prefix(previous + 1) + 1
            bucket = str(1 << (distance - 1).bit_length())
            _add(previous, -1)
            marked -= 1
        histogram[bucket] = histogram.get(bucket, 0) + 1
        _add(position, 1)
        marked += 1
        last_seen[line] = position
    return histogram


def _take(iterable: Iterable[int], count: int):
    for index, item in enumerate(iterable):
        if index >= count:
            return
        yield item


def characterize(workload, config=None, baseline=None) -> WorkloadProfile:
    """Full Table-II-style row for one workload.

    ``baseline`` may pass a pre-computed uncompressed SimResult; otherwise
    one is obtained through the runner (and its disk cache, if any).
    """
    from repro.sim.runner import simulate

    if baseline is None:
        baseline = simulate(workload, "uncompressed", config)
    instructions = sum(baseline.core_instructions)
    mpki = baseline.l3_misses / instructions * 1000 if instructions else 0.0
    mean_size, pair_rate = data_statistics(workload)
    return WorkloadProfile(
        name=workload.name,
        suite=workload.suite,
        l3_mpki=mpki,
        footprint_mb=footprint_mb(workload),
        mean_compressed_bytes=mean_size,
        pair_fit_rate=pair_rate,
    )

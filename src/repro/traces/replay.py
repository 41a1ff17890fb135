"""Replay a stored trace through the full workload interface.

:class:`TraceWorkload` is a frozen spec (so it participates in the
disk-cache key via ``stable_identity`` exactly like ``WorkloadSpec`` —
the trace *hash* is a field, making trace-backed results content-
addressed end to end) and :class:`TraceReplayGenerator` replays the
stored records through the shared :class:`RecordStreamGenerator`
machinery, so the scalar and vectorized-batch simulation paths both
work unchanged and stay bitwise-identical.

Stored traces are address-only (``(is_write, line)``), but compression
studies need line *contents*; replay synthesizes them deterministically
with the same :class:`~repro.workloads.data_patterns.DataGenerator`
pure function the synthetic roster uses — seeded from ``(spec.seed,
core_id)``, versioned per write — so a trace-backed run is a pure
function of (trace hash, spec fields, config).  DESIGN.md §12 documents
the policy.

Timing gaps are likewise synthesized (captured formats carry no
inter-access delay): uniform in ``[0, 2 * mean_gap]`` from a seeded
RNG, mirroring the synthetic generators.

In rate mode every core replays the *same* address stream with a
distinct data/timing seed (``with_seed(seed + core_id)`` — the same
per-core decorrelation the synthetic roster gets).

The decoded records, like the line contents, belong to the run's
:class:`~repro.workloads.data.WorkloadData`, keyed by trace-store root
and trace hash: the eight per-core generators of a run, and every run
that shares the store, decode a stored trace once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Annotated, Dict, Optional

from repro.cpu.trace import TraceRecord
from repro.traces.store import TraceStore, trace_store
from repro.util.schema import Checked, Rule
from repro.workloads.data import WorkloadData
from repro.workloads.data_patterns import SPEC_LIKE, DataProfile
from repro.workloads.generators import (
    RecordStreamGenerator,
    TraceExhausted,
    draw_below,
    draw_span,
)


@dataclass(frozen=True)
class TraceWorkload(Checked):
    """Spec for replaying one stored trace (cache-key compatible)."""

    name: str
    trace_hash: str
    suite: str = "trace"
    seed: int = 0
    #: replay at most this many records per loop (0 = the whole trace)
    limit: Annotated[int, Rule(least=0)] = 0
    #: wrap around at end of trace; when False the cores simply run out
    loop: bool = True
    #: synthesized mean inter-access gap (captured traces carry no timing)
    mean_gap: int = 6
    #: data-synthesis distribution for the line contents
    profile: DataProfile = field(default_factory=lambda: SPEC_LIKE)
    write_scramble: float = 0.05

    def with_seed(self, seed: int) -> "TraceWorkload":
        return replace(self, seed=seed)

    def spec_for_core(self, core_id: int) -> "TraceWorkload":
        """Rate mode: every core replays the trace, with distinct seeds."""
        return self.with_seed(self.seed + core_id)

    @property
    def memory_intensive(self) -> bool:
        return True

    def make_generator(
        self, core_id: int, workload_data: Optional[WorkloadData] = None
    ) -> "TraceReplayGenerator":
        return TraceReplayGenerator(self, core_id, workload_data)


def trace_workload(
    hash_or_prefix: str,
    store: Optional[TraceStore] = None,
    **overrides,
) -> TraceWorkload:
    """Build a :class:`TraceWorkload` from a (possibly abbreviated) hash.

    The canonical name is ``trace:<hash12>`` unless overridden, so runs
    on the same trace alias in reports regardless of how the hash was
    spelled.
    """
    digest = (store or trace_store()).resolve(hash_or_prefix)
    overrides.setdefault("name", f"trace:{digest[:12]}")
    return TraceWorkload(trace_hash=digest, **overrides)


class TraceReplayGenerator(RecordStreamGenerator):
    """Deterministic replay of one stored trace on one core.

    Implements the full workload-generator interface the simulator
    consumes: ``spec``/``data`` attributes, and the inherited
    ``reference``, ``current_data``, ``generate`` and
    ``generate_batched`` (bitwise-identical record streams).  The line
    contents and the decoded records come from ``workload_data`` (a
    private store when ``None``).
    """

    def __init__(
        self,
        spec: TraceWorkload,
        core_id: int,
        workload_data: Optional[WorkloadData] = None,
    ) -> None:
        self.spec = spec
        self.core_id = core_id
        self._rng = random.Random(spec.seed * 1_000_003 + core_id)
        self._getrandbits = self._rng.getrandbits
        # randint(0, 2 * mean_gap) as draw_below arguments
        self._gap_span, self._gap_bits = draw_span(2 * spec.mean_gap + 1)
        if workload_data is None:
            workload_data = WorkloadData()
        self.data = workload_data.data_generator(spec, core_id)
        records = workload_data.trace_records(trace_store(), spec.trace_hash)
        if spec.limit > 0:
            records = records[: spec.limit]
        if not records:
            raise ValueError(f"trace {spec.trace_hash[:12]} has no records to replay")
        self._records = records
        self._cursor = 0
        self._versions: Dict[int, int] = {}
        # trace.* telemetry sources (aggregated by SimulatedSystem);
        # bumped from _on_replay, i.e. per record *consumed*, so the
        # batched path's decode-ahead never skews phase deltas
        self.replayed_records = 0
        self.synthesized_fills = 0

    @property
    def loops(self) -> int:
        """Completed wrap-arounds implied by the records consumed so far."""
        if self.replayed_records <= 0:
            return 0
        return (self.replayed_records - 1) // len(self._records)

    def _on_replay(self, record: TraceRecord) -> None:
        self.replayed_records += 1
        if record.is_write:
            self.synthesized_fills += 1

    def _record(self) -> TraceRecord:
        if self._cursor >= len(self._records):
            if not self.spec.loop:
                raise TraceExhausted()
            self._cursor = 0
        is_write, vline = self._records[self._cursor]
        self._cursor += 1
        gap = draw_below(self._getrandbits, self._gap_span, self._gap_bits)
        if is_write:
            version = self._versions.get(vline, 0) + 1
            self._versions[vline] = version
            return TraceRecord(gap, True, vline, self.data.line(vline, version))
        return TraceRecord(gap, False, vline, None)


__all__ = [
    "TraceReplayGenerator",
    "TraceWorkload",
    "trace_workload",
]

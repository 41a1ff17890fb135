"""Synthetic memory-trace generators (the SPEC/GAP stand-ins).

Each :class:`WorkloadSpec` controls the four axes the paper's mechanisms
respond to (DESIGN.md §4):

- *spatial locality* (``seq_frac`` + streaming runs) — drives the
  usefulness of co-fetched neighbour lines and LLP accuracy;
- *temporal reuse* (``reuse_frac`` over a hot set) — decides whether the
  bandwidth invested in compressing lines is ever amortised;
- *write behaviour* (``write_frac``, ``write_scramble``) — produces the
  dirty evictions and compressibility churn that cost PTMC bandwidth;
- *data values* (``profile``) — set the compression ratio itself.

SPEC-like specs are sequential, reusing and compressible (PTMC should
win); GAP-like specs are irregular with poor reuse and mostly random
data (static compression should lose, Dynamic-PTMC should bail out).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.cpu.trace import TraceRecord
from repro.workloads.data import WorkloadData
from repro.workloads.data_patterns import (
    GRAPH_LIKE,
    SPEC_LIKE,
    DataGenerator,
    DataProfile,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic benchmark."""

    name: str
    suite: str  # "spec06" | "spec17" | "gap" | "mix" | "low"
    footprint_lines: int = 1 << 16
    seq_frac: float = 0.6
    reuse_frac: float = 0.2
    hot_lines: int = 2048
    run_length: int = 24
    jump_burst: int = 4
    """Lines touched contiguously after a non-sequential jump (reuse or
    random).  Real programs touch spatial neighbourhoods, not isolated
    64-byte lines; bursts of about one compression group keep neighbour
    lines co-resident in the LLC, which both compaction and the LLP rely
    on.  Graph workloads set this to 1 (isolated vertex touches)."""
    write_frac: float = 0.25
    mean_gap: int = 6
    profile: DataProfile = field(default_factory=lambda: SPEC_LIKE)
    write_scramble: float = 0.05
    seed: int = 0

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return replace(self, seed=seed)

    @property
    def memory_intensive(self) -> bool:
        return self.suite != "low"

    def make_generator(
        self, core_id: int, workload_data: Optional[WorkloadData] = None
    ) -> "WorkloadTraceGenerator":
        """The per-core generator for this spec (polymorphic with
        :class:`repro.traces.replay.TraceWorkload`), drawing its line
        contents from ``workload_data`` (a private store when ``None``)."""
        return WorkloadTraceGenerator(self, core_id, workload_data)


def draw_below(getrandbits: Callable[[int], int], n: int, bits: int) -> int:
    """A uniform draw from ``range(n)``, made exactly as ``random.Random`` makes it.

    ``Random.randrange(n)`` is ``_randbelow(n)``, and ``randint(a, b)`` is
    ``a + _randbelow(b - a + 1)``; ``_randbelow`` draws
    ``getrandbits(n.bit_length())`` and redraws while the result is out of
    range.  This is that loop, given the bound ``getrandbits`` and ``bits``
    (``n.bit_length()``, which a caller with a fixed ``n`` computes once):
    it consumes the generator's state draw for draw as ``randrange`` does,
    without its two extra Python frames.  ``n`` must be positive.
    """
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def draw_span(n: int) -> Tuple[int, int]:
    """``(n, n.bit_length())`` for :func:`draw_below`, checking ``n >= 1``
    (where ``randrange`` raises on an empty range)."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    return n, n.bit_length()


#: ``_new_record(TraceRecord, fields)`` is what the NamedTuple's generated
#: ``__new__`` does with all four fields, without that Python frame
_new_record = tuple.__new__


class TraceExhausted(Exception):
    """Raised by ``_record()`` when a finite record source runs out.

    Synthetic generators never raise it; finite (non-looping) trace
    replay does, and :class:`RecordStreamGenerator` turns it into a
    clean end-of-stream for both the scalar and the batched path.
    """


class RecordStreamGenerator:
    """Shared scalar/batched replay machinery over a ``_record()`` source.

    Subclasses implement :meth:`_record` — the single source of record
    order — and inherit ``generate``/``generate_batched`` whose record
    streams are bitwise-identical to each other (DESIGN.md §9).  A
    subclass with a finite source signals the end by raising
    :class:`TraceExhausted` from ``_record()``.
    """

    #: per-line store synthesis, set by subclasses: the pure-function line
    #: contents, and the number of stores drawn to each line so far
    data: DataGenerator
    _versions: Dict[int, int]

    def _record(self) -> TraceRecord:
        """Draw the next trace record (the single source of RNG order)."""
        raise NotImplementedError

    @property
    def reference(self) -> Dict[int, bytes]:
        """Reference model: the latest data value of every line ever written.

        Derived on demand from the per-line store counts, since a line's
        contents are a pure function of ``(vline, version)``; the record
        path keeps one dict, not two.
        """
        line = self.data.line
        return {vline: line(vline, version) for vline, version in self._versions.items()}

    def current_data(self, vline: int) -> bytes:
        """The value the line holds right now (version-aware)."""
        return self.data.line(vline, self._versions.get(vline, 0))

    def _on_replay(self, record: TraceRecord) -> None:
        """Hook fired as each record is handed to the consumer.

        Called at *yield* time — not decode time — in both the scalar
        and the batched path, so counters driven from it see the exact
        same per-consumed-record timing either way (the batched path
        decodes up to a chunk ahead, which would otherwise leak into
        phase-windowed telemetry deltas).
        """

    def generate(self, num_ops: int) -> Iterator[TraceRecord]:
        """Yield up to ``num_ops`` trace records."""
        record = self._record
        # the base class's hook does nothing, so it is called only when
        # overridden (in a subclass or on the instance)
        on_replay = self._on_replay
        if getattr(on_replay, "__func__", None) is RecordStreamGenerator._on_replay:
            on_replay = None
        for _ in range(num_ops):
            try:
                item = record()
            except TraceExhausted:
                return
            if on_replay is not None:
                on_replay(item)
            yield item

    def generate_batched(
        self,
        num_ops: int,
        chunk_ops: int,
        on_chunk: Optional[Callable[["TraceChunk"], None]] = None,
    ) -> Iterator[TraceRecord]:
        """Yield exactly the records :meth:`generate` would, in chunks.

        Records are pre-decoded ``chunk_ops`` at a time and each block is
        handed to ``on_chunk`` (as a :class:`TraceChunk`) before any of
        its records is replayed — one opportunity for bulk work, such as
        vectorized compressed-size precompute, ahead of the per-record
        consumers.  Both paths call :meth:`_record` in the same order, so
        the record stream is identical; only the generator-side state
        (``reference``, ``_versions``) runs ahead of the replay by at most one
        chunk, which nothing observes until the trace is drained.
        """
        if chunk_ops < 1:
            raise ValueError("chunk_ops must be positive")
        remaining = num_ops
        while remaining > 0:
            take = min(chunk_ops, remaining)
            remaining -= take
            records = []
            try:
                for _ in range(take):
                    records.append(self._record())
            except TraceExhausted:
                remaining = 0
            if not records:
                return
            chunk = TraceChunk(records)
            if on_chunk is not None:
                on_chunk(chunk)
            for record in chunk.records:
                self._on_replay(record)
                yield record


class WorkloadTraceGenerator(RecordStreamGenerator):
    """Deterministic trace generator for one core running one spec.

    Draws go through :func:`draw_below` with the spec's fixed ranges and
    thresholds taken once here, so each record costs a few
    ``getrandbits``/``random`` calls and no ``randrange`` frames; the
    draw sequence is the one ``randrange``/``randint`` would make.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        core_id: int,
        workload_data: Optional[WorkloadData] = None,
    ) -> None:
        self.spec = spec
        self.core_id = core_id
        self._rng = random.Random(spec.seed * 1_000_003 + core_id)
        self._random = self._rng.random
        self._getrandbits = self._rng.getrandbits
        if workload_data is None:
            workload_data = WorkloadData()
        self.data = workload_data.data_generator(spec, core_id)
        self._versions: Dict[int, int] = {}
        # randrange(footprint), randint(0, 2 * mean_gap) and
        # randint(0, jump_burst - 1) as draw_below arguments
        self._footprint, self._footprint_bits = draw_span(spec.footprint_lines)
        self._gap_span, self._gap_bits = draw_span(2 * spec.mean_gap + 1)
        self._burst_span = spec.jump_burst
        self._burst_bits = spec.jump_burst.bit_length()
        self._seq_frac = spec.seq_frac
        self._reuse_cut = spec.seq_frac + spec.reuse_frac
        self._jump_p = 1.0 / max(1, spec.run_length)
        self._write_frac = spec.write_frac
        self._stream_pos = draw_below(
            self._getrandbits, self._footprint, self._footprint_bits
        )
        self._burst_pos = 0
        self._burst_left = 0
        self._hot: Deque[int] = deque(maxlen=spec.hot_lines)

    # ------------------------------------------------------------------

    def _record(self) -> TraceRecord:
        """Draw the next trace record (the single source of RNG order).

        The gap, then the address, then the store decision.  An address
        finishes the burst opened by the last jump, continues the stream
        (or jumps from it), or reuses a hot line or jumps at random,
        which opens a burst.  Every address joins the hot set.
        """
        getrandbits = self._getrandbits
        random = self._random
        gap = draw_below(getrandbits, self._gap_span, self._gap_bits)
        hot = self._hot
        if self._burst_left > 0:
            # finish the spatial neighbourhood opened by the last jump
            self._burst_left -= 1
            vline = self._burst_pos = (self._burst_pos + 1) % self._footprint
        else:
            draw = random()
            if draw < self._seq_frac:
                vline = (self._stream_pos + 1) % self._footprint
                if random() < self._jump_p:
                    vline = draw_below(getrandbits, self._footprint, self._footprint_bits)
                self._stream_pos = vline
            else:
                if draw < self._reuse_cut and hot:
                    n = len(hot)
                    vline = hot[draw_below(getrandbits, n, n.bit_length())]
                else:
                    vline = draw_below(getrandbits, self._footprint, self._footprint_bits)
                if self._burst_span > 1:
                    self._burst_pos = vline
                    self._burst_left = draw_below(
                        getrandbits, self._burst_span, self._burst_bits
                    )
        hot.append(vline)
        if random() < self._write_frac:
            versions = self._versions
            version = versions.get(vline, 0) + 1
            versions[vline] = version
            return _new_record(TraceRecord, (gap, True, vline, self.data.line(vline, version)))
        return _new_record(TraceRecord, (gap, False, vline, None))


@dataclass
class TraceChunk:
    """A pre-decoded block of trace records with bulk views of its data."""

    records: List[TraceRecord]

    def __len__(self) -> int:
        return len(self.records)

    def write_lines(self) -> List[bytes]:
        """Data of the write records, in trace order (duplicates kept)."""
        return [record.write_data for record in self.records if record.is_write]


def make_mix(name: str, specs, seed: int = 0) -> "MixWorkload":
    return MixWorkload(name, list(specs), seed)


@dataclass
class MixWorkload:
    """A MIX workload: a different spec on each core (paper's mix1..mix6)."""

    name: str
    specs: list
    seed: int = 0
    suite: str = "mix"

    @property
    def memory_intensive(self) -> bool:
        return True

    def spec_for_core(self, core_id: int) -> WorkloadSpec:
        spec = self.specs[core_id % len(self.specs)]
        return spec.with_seed(spec.seed + self.seed + 17 * core_id)


# Ready-made parameter templates --------------------------------------------

def spec_like(name: str, suite: str = "spec06", **overrides) -> WorkloadSpec:
    """A compressible, spatially local, reusing workload (SPEC-flavoured)."""
    params = dict(
        footprint_lines=2048,
        seq_frac=0.62,
        reuse_frac=0.22,
        hot_lines=512,
        run_length=28,
        write_frac=0.25,
        mean_gap=6,
        profile=SPEC_LIKE,
        write_scramble=0.005,
    )
    params.update(overrides)
    return WorkloadSpec(name=name, suite=suite, **params)


def graph_like(name: str, **overrides) -> WorkloadSpec:
    """An irregular, low-reuse, poorly compressible workload (GAP-flavoured)."""
    params = dict(
        footprint_lines=64 * 1024,
        jump_burst=1,
        seq_frac=0.08,
        reuse_frac=0.15,
        hot_lines=8 * 1024,
        run_length=4,
        write_frac=0.15,
        mean_gap=5,
        profile=GRAPH_LIKE,
        write_scramble=0.35,
    )
    params.update(overrides)
    return WorkloadSpec(name=name, suite="gap", **params)


def low_mpki(name: str, suite: str = "low", **overrides) -> WorkloadSpec:
    """A cache-friendly filler workload (part of the 64-workload set)."""
    params = dict(
        footprint_lines=1024,
        seq_frac=0.55,
        reuse_frac=0.35,
        hot_lines=512,
        run_length=32,
        write_frac=0.2,
        mean_gap=40,
        profile=SPEC_LIKE,
        write_scramble=0.02,
    )
    params.update(overrides)
    return WorkloadSpec(name=name, suite=suite, **params)

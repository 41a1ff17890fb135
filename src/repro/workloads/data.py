"""What every run of one workload derives from the workload alone.

A :class:`WorkloadData` holds the parts of a simulation that are pure
functions of its workload: each core's
:class:`~repro.workloads.data_patterns.DataGenerator` (and with it the
first-touch lines it has rendered), the hybrid compressor's payload and
size memos for each algorithm stack, and a replayed trace's decoded
records.  Every run of the workload may share one.  A run's own state
stays with its :class:`~repro.sim.system.SimulatedSystem`: the trace
generators with their RNGs and store counts, the compressor's
decompression memo, the markers, LLP, LIT and memory.

A ``SimulatedSystem`` given no store builds a private one, so a lone
run shares nothing.  The runner keeps one store per workload per
process, found by the workload's content and bounded in total entries
(:func:`repro.sim.runner.workload_data`; DESIGN.md §6 and §14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.workloads.data_patterns import DataGenerator

if TYPE_CHECKING:
    from repro.traces.store import TraceStore

#: A hybrid compressor's memos: payload by line, and charged size by line.
CompressionMemos = Tuple[Dict[bytes, Optional[bytes]], Dict[bytes, int]]


class WorkloadData:
    """One workload's shared, pure-function data (see the module docstring)."""

    def __init__(self) -> None:
        self._generators: Dict[tuple, DataGenerator] = {}
        self._compression: Dict[Tuple[str, ...], CompressionMemos] = {}
        self._records: Dict[Tuple[str, str], List[Tuple[bool, int]]] = {}

    def data_generator(self, spec, core_id: int) -> DataGenerator:
        """The line contents of core ``core_id`` running ``spec``.

        Keyed on the generator's own parameters, so specs with equal data
        share one, and a store never hands out another workload's lines.
        """
        seed = spec.seed * 7_919 + core_id
        profile = spec.profile
        key = (tuple(profile.weights.items()), profile.noise, seed, spec.write_scramble)
        generator = self._generators.get(key)
        if generator is None:
            generator = DataGenerator(profile, seed=seed, write_scramble=spec.write_scramble)
            self._generators[key] = generator
        return generator

    def compression_memos(self, algorithms: Tuple[str, ...]) -> CompressionMemos:
        """The payload and size memos of the hybrid stack ``algorithms``."""
        memos = self._compression.get(algorithms)
        if memos is None:
            memos = self._compression[algorithms] = ({}, {})
        return memos

    def trace_records(self, store: "TraceStore", trace_hash: str) -> List[Tuple[bool, int]]:
        """A stored trace's decoded records, loaded once (read-only)."""
        key = (str(store.root), trace_hash)
        records = self._records.get(key)
        if records is None:
            records = self._records[key] = store.load_records(trace_hash)
        return records

    def entries(self) -> int:
        """First-touch lines, payloads, sizes and trace records held."""
        return (
            sum(generator.first_touch_lines() for generator in self._generators.values())
            + sum(len(payloads) + len(sizes) for payloads, sizes in self._compression.values())
            + sum(len(records) for records in self._records.values())
        )


__all__ = ["CompressionMemos", "WorkloadData"]

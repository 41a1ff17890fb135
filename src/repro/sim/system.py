"""Wiring: workload + design + config -> a runnable simulated system."""

from __future__ import annotations

import dataclasses
import heapq
from typing import Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.compression import ALGORITHMS, HybridCompressor
from repro.compression.batch import BatchCompressor
from repro.core.base_controller import MemoryController
from repro.core.ideal import IdealTMCController
from repro.core.memzip import MemZipController
from repro.core.metadata_table import MetadataTableController
from repro.core.policy import AlwaysOnPolicy, CompressionPolicy, SamplingPolicy
from repro.core.prefetch import NextLinePrefetchController
from repro.core.ptmc import PTMCController
from repro.core.uncompressed import UncompressedController
from repro.cpu.core import CoreModel
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.obs.sampler import IntervalSampler, ObsConfig
from repro.obs.tracing import span
from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.telemetry import Metrics, StatRegistry
from repro.vm.page_table import LINES_PER_PAGE, PageTable
from repro.workloads.data import WorkloadData
from repro.workloads.generators import MixWorkload

#: Design names accepted by :func:`build_controller` and the runner.
DESIGNS = (
    "uncompressed",
    "tmc_table",
    "memzip",
    "ideal",
    "static_ptmc",
    "dynamic_ptmc",
    "prefetch",
)


def build_controller(
    design: str,
    memory: PhysicalMemory,
    dram: DRAMSystem,
    config: SimConfig,
    workload_data: Optional[WorkloadData] = None,
) -> Tuple[MemoryController, Optional[CompressionPolicy]]:
    """Instantiate one of the studied designs by name.

    Every design that compresses gets the ``HybridCompressor`` of
    ``config.compression``, memoizing into ``workload_data``'s memos for
    that stack (its own when ``None``).  This is the only reader of
    ``config``'s ``compression``, ``metadata``, ``ptmc`` and ``sampling``
    sections; ``diskcache.UNREAD_SECTIONS`` lists, per design, the ones
    it never reads.
    """
    if design == "uncompressed":
        return UncompressedController(memory, dram), None
    if design == "prefetch":
        return NextLinePrefetchController(memory, dram), None
    stack = config.compression
    memos = None if workload_data is None else workload_data.compression_memos(stack)
    compressor = HybridCompressor([ALGORITHMS[name]() for name in stack], memos=memos)
    if design == "tmc_table":
        return MetadataTableController(memory, dram, compressor, config=config.metadata), None
    if design == "memzip":
        return MemZipController(memory, dram, compressor, config=config.metadata), None
    if design == "ideal":
        return IdealTMCController(memory, dram, compressor), None
    if design == "static_ptmc":
        policy = AlwaysOnPolicy()
        return PTMCController(memory, dram, compressor, config=config.ptmc, policy=policy), policy
    if design == "dynamic_ptmc":
        policy = SamplingPolicy(
            counter_bits=config.sampling.counter_bits,
            sample_period=config.sampling.sample_period,
            num_cores=config.num_cores,
            per_core=config.sampling.per_core,
            benefit_weight=config.sampling.benefit_weight,
        )
        return PTMCController(memory, dram, compressor, config=config.ptmc, policy=policy), policy
    raise ValueError(f"unknown design {design!r}; choose from {DESIGNS}")


class SimulatedSystem:
    """An 8-core system running one workload on one memory design.

    ``workload_data`` is the workload's store of shared, pure-function
    data (:class:`~repro.workloads.data.WorkloadData`): the runner passes
    the process's store for the workload, so its runs share first-touch
    lines, compression memos and trace records.  Given none, the system
    builds a private one and shares nothing with any other run.
    """

    def __init__(
        self,
        workload,
        design: str,
        config: SimConfig,
        obs: Optional[ObsConfig] = None,
        workload_data: Optional[WorkloadData] = None,
    ):
        self.workload = workload
        self.design = design
        self.config = config
        self.obs = obs or ObsConfig()
        self.workload_data = workload_data if workload_data is not None else WorkloadData()
        self.page_table = PageTable(config.capacity_lines, seed=config.seed + 99)
        # each spec builds its own generator flavour: synthetic specs a
        # WorkloadTraceGenerator, trace workloads a TraceReplayGenerator
        self.generators = [
            self._spec_for_core(core).make_generator(core, self.workload_data)
            for core in range(config.num_cores)
        ]
        self.memory = PhysicalMemory(
            config.capacity_lines, initial_content=self._initial_content
        )
        self.dram = DRAMSystem(
            config.timing,
            config.geometry,
            page_policy=config.page_policy,
            refresh=config.refresh,
        )
        self.controller, self.policy = build_controller(
            design, self.memory, self.dram, config, self.workload_data
        )
        hcfg = config.hierarchy
        if hcfg.num_cores != config.num_cores:
            hcfg = dataclasses.replace(hcfg, num_cores=config.num_cores)
        if config.llc_policy is not None and hcfg.l3_policy != config.llc_policy:
            hcfg = dataclasses.replace(hcfg, l3_policy=config.llc_policy)
        self.hierarchy = CacheHierarchy(self.controller, hcfg, self.policy)
        self.batch = self._make_batch()
        total_ops = config.ops_per_core + config.warmup_ops
        self.cores = [
            CoreModel(
                core,
                self._trace_for(core, total_ops),
                self.hierarchy,
                self.page_table,
                width=config.width,
                mlp=config.mlp,
            )
            for core in range(config.num_cores)
        ]
        self.registry = self._build_registry()
        self.sampler = self._make_sampler()

    def _make_sampler(self) -> Optional[IntervalSampler]:
        """Interval sampler over the registry, when observation asks for one.

        Strictly read-only: the sampler windows the same sourced stats
        the end-of-run collection reads, so its presence cannot change a
        single simulated outcome (``tests/test_obs_golden.py``).
        """
        if not self.obs.sampling:
            return None
        return IntervalSampler(
            self.registry,
            self.obs.sample_interval,
            paths=self.obs.sample_paths,
            phase="warmup" if self.config.warmup_ops else "measured",
        )

    def _make_batch(self) -> Optional[BatchCompressor]:
        """Batch front-end for the controller's compressor, if seedable.

        Batch-driving only pays off when the vectorized sizes can be
        parked somewhere the controller's scalar queries will find them —
        i.e. the compressor exposes a ``seed_sizes`` memo.  Controllers
        without a compressor (uncompressed, prefetch) replay the plain
        scalar trace; either way the record stream and every simulated
        outcome are identical (the golden test holds all seven designs to
        that).
        """
        if self.config.batch_chunk <= 0:
            return None
        compressor = getattr(self.controller, "compressor", None)
        if compressor is None or not hasattr(compressor, "seed_sizes"):
            return None
        return BatchCompressor(compressor)

    def _trace_for(self, core_id: int, total_ops: int):
        """The core's trace iterator: chunk-batched when it can help."""
        generator = self.generators[core_id]
        if self.batch is None:
            return generator.generate(total_ops)
        return generator.generate_batched(
            total_ops, self.config.batch_chunk, on_chunk=self._precompute_chunk
        )

    def _precompute_chunk(self, chunk) -> None:
        """Seed the compressor's size memo from one pre-decoded chunk."""
        lines = chunk.write_lines()
        if lines:
            with span("batch.precompute", category="sim", lines=len(lines)):
                self.batch.precompute(lines)

    def _build_registry(self) -> StatRegistry:
        """One registry spanning every stat-bearing component.

        Each component hangs its counters under a fixed namespace —
        ``dram.*``, ``llc.*``, ``core.<id>.*``, ``<design>.*`` and
        ``policy.*`` — so downstream consumers address metrics by path
        instead of by component type.
        """
        registry = StatRegistry()
        self.dram.register_stats(registry.scope("dram"))
        self.hierarchy.register_stats(registry.scope("llc"))
        self.controller.register_stats(registry.scope(self.controller.name))
        if self.policy is not None:
            self.policy.register_stats(registry.scope("policy"))
        cores = registry.scope("core")
        for core in self.cores:
            core.register_stats(cores.scope(str(core.core_id)))
        replayers = [g for g in self.generators if hasattr(g, "replayed_records")]
        if replayers:
            trace_scope = registry.scope("trace")
            trace_scope.counter(
                "replayed_records",
                lambda: sum(g.replayed_records for g in replayers),
                doc="stored trace records replayed across all cores",
            )
            trace_scope.counter(
                "synthesized_fills",
                lambda: sum(g.synthesized_fills for g in replayers),
                doc="write records whose line data was synthesized",
            )
            trace_scope.counter(
                "loops",
                lambda: sum(g.loops for g in replayers),
                doc="times a core's trace wrapped around",
            )
        return registry

    def _spec_for_core(self, core_id: int):
        if isinstance(self.workload, MixWorkload):
            return self.workload.spec_for_core(core_id)
        # rate mode: same benchmark on every core, distinct seeds
        return self.workload.with_seed(self.workload.seed + core_id)

    def _initial_content(self, line_addr: int) -> bytes:
        """First-touch contents: the owning workload's version-0 data."""
        frame, offset = divmod(line_addr, LINES_PER_PAGE)
        try:
            core_id, vpage = self.page_table.reverse(frame)
        except KeyError:
            return b"\x00" * 64  # untranslated region (metadata, spill bitmaps)
        vline = vpage * LINES_PER_PAGE + offset
        return self.generators[core_id].data.line(vline, 0)

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Event-driven run: warmup phase, registry snapshot, measured phase."""
        with span(
            "sim.run",
            category="sim",
            design=self.design,
            workload=self.workload.name,
        ):
            warmup = self.config.warmup_ops
            if warmup:
                with span("sim.phase", category="sim", phase="warmup"):
                    self._run_phase(lambda core: core.mem_ops < warmup)
            baseline = self.registry.snapshot()
            if self.sampler is not None:
                # after the baseline snapshot (same instant, same values):
                # the flushed point closes the warmup phase and the first
                # measured point windows from the measurement boundary
                self.sampler.mark_phase("measured")
            with span("sim.phase", category="sim", phase="measured"):
                self._run_phase(None)
            if self.sampler is not None:
                self.sampler.finish()
            return self._collect(self.registry.delta(baseline))

    def _run_phase(self, keep_running) -> None:
        """Step cores in global-time order while ``keep_running`` allows."""
        heap = [
            (core.time, core.core_id)
            for core in self.cores
            if not core.done and (keep_running is None or keep_running(core))
        ]
        heapq.heapify(heap)
        sampler = self.sampler
        cores = self.cores
        while heap:
            # step the earliest core, then re-key its entry in place (one
            # sift instead of a pop and a push; entries are distinct, so
            # the stepping order is the same)
            core_id = heap[0][1]
            core = cores[core_id]
            stepped = core.step()
            if stepped and sampler is not None:
                sampler.on_access()
            if stepped and (keep_running is None or keep_running(core)):
                heapq.heapreplace(heap, (core.time, core_id))
            else:
                heapq.heappop(heap)

    def _collect(self, metrics: Metrics) -> SimResult:
        """The measured-window metrics, by registry path, as a :class:`SimResult`."""
        return SimResult(
            workload=self.workload.name,
            design=self.design,
            metrics=dict(metrics),
            timeseries=None if self.sampler is None else self.sampler.timeseries(),
        )

"""Tests for the trace record and core timing model."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.core.uncompressed import UncompressedController
from repro.cpu.core import CoreModel
from repro.cpu.trace import TraceRecord, trace_from_lists
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.vm.page_table import PageTable


def make_core(records, mlp=4, width=4, cores=1):
    memory = PhysicalMemory(1 << 16)
    dram = DRAMSystem()
    hierarchy = CacheHierarchy(
        UncompressedController(memory, dram),
        HierarchyConfig(l1_bytes=1024, l2_bytes=4096, l3_bytes=16384),
        cores,
    )
    page_table = PageTable(1 << 16)
    return CoreModel(0, iter(records), hierarchy, page_table, width=width, mlp=mlp)


class TestTraceRecord:
    def test_instruction_accounting(self):
        assert TraceRecord(9, False, 0).instructions == 10

    def test_builder(self):
        records = trace_from_lists([1, 2, 3], gap=5, write_every=2)
        assert len(records) == 3
        assert records[1].is_write
        assert records[1].write_data is not None
        assert not records[0].is_write


class TestCoreModel:
    def test_runs_to_completion(self):
        core = make_core(trace_from_lists(range(50)))
        while core.step():
            pass
        assert core.done
        assert core.mem_ops == 50
        assert core.instructions == 50 * 4

    def test_time_advances(self):
        core = make_core(trace_from_lists(range(50)))
        while core.step():
            pass
        assert core.time > 0
        assert core.ipc > 0

    def test_mlp_bounds_outstanding(self):
        # all misses to distinct lines: with mlp=1 the core serialises
        serial = make_core(trace_from_lists(range(64)), mlp=1)
        while serial.step():
            pass
        parallel = make_core(trace_from_lists(range(64)), mlp=8)
        while parallel.step():
            pass
        assert parallel.time < serial.time

    def test_hits_are_fast(self):
        # repeated access to one line stays in L1
        core = make_core(trace_from_lists([5] * 100))
        while core.step():
            pass
        miss_heavy = make_core(trace_from_lists(range(100)))
        while miss_heavy.step():
            pass
        assert core.time < miss_heavy.time

    def test_validation(self):
        with pytest.raises(ValueError):
            make_core([], mlp=0)
        with pytest.raises(ValueError):
            make_core([], width=0)

    def test_drain_waits_for_outstanding(self):
        core = make_core(trace_from_lists(range(8)), mlp=8)
        while core.step():
            pass
        # final time must cover the last miss's completion, which is far
        # beyond the pure compute time of 8 ops
        assert core.time > 8

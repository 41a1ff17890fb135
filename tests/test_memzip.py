"""Unit tests for the MemZip-style (non-commodity) TMC baseline."""

import random

import pytest

from repro.core.memzip import MemZipController
from repro.core.metadata_table import MetadataTableConfig
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from tests.controller_harness import FakeLLC, category_counts, evicted
from tests.lineutils import quad_friendly_line, random_line, zero_line


@pytest.fixture
def memzip():
    return MemZipController(PhysicalMemory(1 << 16), DRAMSystem(refresh=False))


class TestReadWrite:
    def test_roundtrip_compressible(self, memzip):
        line = quad_friendly_line(3)
        memzip.handle_eviction(evicted(5, line), 0, 0, FakeLLC())
        assert memzip.read_line(5, 0, 0, FakeLLC()).data == line

    def test_roundtrip_incompressible(self, memzip):
        line = random_line(random.Random(8))
        memzip.handle_eviction(evicted(5, line), 0, 0, FakeLLC())
        assert memzip.read_line(5, 0, 0, FakeLLC()).data == line

    def test_no_cofetch(self, memzip):
        memzip.handle_eviction(evicted(5, zero_line()), 0, 0, FakeLLC())
        result = memzip.read_line(5, 0, 0, FakeLLC())
        assert not result.extra_lines

    def test_clean_eviction_free(self, memzip):
        memzip.handle_eviction(evicted(5, zero_line(), dirty=False), 0, 0, FakeLLC())
        assert memzip.dram.stats.total_accesses == 0


class TestVariableBurst:
    def test_compressed_read_occupies_less_bus(self, memzip):
        compressible = quad_friendly_line(1)
        incompressible = random_line(random.Random(3))
        memzip.handle_eviction(evicted(0, compressible), 0, 0, FakeLLC())
        memzip.handle_eviction(evicted(64, incompressible), 0, 0, FakeLLC())
        busy_before = memzip.dram.stats.busy_cycles
        memzip.read_line(0, 10_000, 0, FakeLLC())
        short = memzip.dram.stats.busy_cycles - busy_before
        busy_before = memzip.dram.stats.busy_cycles
        memzip.read_line(64, 20_000, 0, FakeLLC())
        full = memzip.dram.stats.busy_cycles - busy_before
        # metadata hits for both; the data burst is what differs
        assert short < full

    def test_burst_counts_tracked(self, memzip):
        memzip.handle_eviction(evicted(5, zero_line()), 0, 0, FakeLLC())
        assert memzip._burst_count(5) < 8
        memzip.handle_eviction(
            evicted(5, random_line(random.Random(1))), 0, 0, FakeLLC()
        )
        assert memzip._burst_count(5) == 8

    def test_untouched_lines_assume_full_burst(self, memzip):
        assert memzip._burst_count(999) == 8


class TestMetadata:
    def test_read_touches_metadata(self, memzip):
        memzip.read_line(5, 0, 0, FakeLLC())
        assert category_counts(memzip).get("metadata_read", 0) == 1

    def test_metadata_cache_reuse(self, memzip):
        memzip.read_line(5, 0, 0, FakeLLC())
        memzip.read_line(6, 0, 0, FakeLLC())
        assert category_counts(memzip)["metadata_read"] == 1

    def test_size_change_dirties_metadata(self, memzip):
        config = MetadataTableConfig(cache_bytes=2 * 64, cache_ways=1)
        small = MemZipController(PhysicalMemory(1 << 16), DRAMSystem(refresh=False), config=config)
        small.handle_eviction(evicted(5, zero_line()), 0, 0, FakeLLC())
        for i in range(8):
            small.read_line(i * 2048, 0, 0, FakeLLC())
        assert category_counts(small).get("metadata_write", 0) >= 1


class TestMetadataCacheConfig:
    def test_both_table_designs_take_the_configured_organisation(self):
        """MemZip's metadata cache is sized *and* shaped by
        ``SimConfig.metadata``, exactly as table-TMC's is."""
        from repro.sim.config import quick_config
        from repro.sim.system import build_controller

        config = quick_config(metadata=MetadataTableConfig(cache_bytes=1024, cache_ways=4))
        for design in ("tmc_table", "memzip"):
            controller, _ = build_controller(
                design, PhysicalMemory(1 << 16), DRAMSystem(refresh=False), config
            )
            cache = controller.metadata_cache
            assert (cache.num_sets, cache.ways) == (4, 4), design


class TestIntegration:
    def test_full_simulation_data_integrity(self):
        from repro.core.base_controller import NullLLCView
        from repro.sim.config import quick_config
        from repro.sim.system import SimulatedSystem
        from repro.workloads import get_workload

        cfg = quick_config(ops_per_core=1000, warmup_ops=0)
        system = SimulatedSystem(get_workload("milc06"), "memzip", cfg)
        system.run()
        system.hierarchy.flush(0)
        null = NullLLCView()
        for core_id, generator in enumerate(system.generators):
            for vline, expected in generator.reference.items():
                paddr = system.page_table.translate(core_id, vline)
                assert system.controller.read_line(paddr, 0, core_id, null).data == expected

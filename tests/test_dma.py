"""Tests for DMA/multi-socket transparency (paper §VI-G)."""

import pytest

from repro.core.ptmc import PTMCController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.sim.config import quick_config
from repro.sim.dma import DMAAgent
from repro.sim.system import SimulatedSystem
from repro.types import Level
from repro.workloads import get_workload
from tests.controller_harness import FakeLLC, evicted
from tests.lineutils import quad_friendly_line
from tests.test_line_contents import current_contents


@pytest.fixture
def setup():
    memory = PhysicalMemory(1 << 16)
    controller = PTMCController(memory, DRAMSystem())
    llc = FakeLLC()
    return controller, llc, DMAAgent(controller, llc, core_id=7)


class TestDMARead:
    def test_reads_compressed_data_transparently(self, setup):
        controller, llc, dma = setup
        lines = [quad_friendly_line(i) for i in range(4)]
        seed_llc = FakeLLC()
        for i in range(1, 4):
            seed_llc.add(8 + i, lines[i], dirty=True)
        controller.handle_eviction(evicted(8, lines[0]), 0, 0, seed_llc)
        block = dma.read_block(8, 4)
        assert block == b"".join(lines)
        assert dma.reads == 4

    def test_snoops_dirty_llc_copy(self, setup):
        controller, llc, dma = setup
        newest = b"\x42" * 64
        llc.add(20, newest, dirty=True)
        controller.memory.write(20, b"\x00" * 64)  # stale memory copy
        assert dma.read_block(20, 1) == newest

    def test_reads_inverted_lines_correctly(self, setup):
        controller, llc, dma = setup
        colliding = b"\x55" * 60 + controller.markers.marker(30, Level.PAIR)
        controller.handle_eviction(evicted(30, colliding), 0, 0, FakeLLC())
        assert dma.read_block(30, 1) == colliding

    def test_snoops_clean_llc_lines_of_uncompressed_system(self):
        """Clean L3 lines, first-touch ones included, are served from the
        LLC with their contents; memory is never asked."""
        config = quick_config(ops_per_core=400, warmup_ops=0)
        system = SimulatedSystem(get_workload("lbm06"), "uncompressed", config)
        system.run()
        clean = [line.addr for line in system.hierarchy.l3.resident() if not line.dirty]
        assert clean

        def no_memory_read(*args):
            raise AssertionError("DMA read a line the LLC holds from memory")

        system.controller.read_line = no_memory_read
        dma = DMAAgent(system.controller, system.hierarchy.llc_view)
        for addr in clean:
            assert dma.read_block(addr, 1) == current_contents(system, addr)
        assert dma.reads == len(clean)


class TestDMAWrite:
    def test_write_then_cpu_read(self, setup):
        controller, llc, dma = setup
        payload = bytes(range(64)) + bytes(reversed(range(64)))
        assert dma.write_block(40, payload) == 2
        assert controller.read_line(40, 0, 0, llc).data == payload[:64]
        assert controller.read_line(41, 0, 0, llc).data == payload[64:]

    def test_write_invalidates_cached_copies(self, setup):
        controller, llc, dma = setup
        llc.add(50, b"\x01" * 64, dirty=False)
        dma.write_block(50, b"\x02" * 64)
        assert llc.probe(50) is None
        assert dma.read_block(50, 1) == b"\x02" * 64

    def test_write_colliding_data_is_inverted(self, setup):
        controller, llc, dma = setup
        colliding = b"\x66" * 60 + controller.markers.marker(60, Level.QUAD)
        dma.write_block(60, colliding)
        assert 60 in controller.lit
        assert dma.read_block(60, 1) == colliding

    def test_write_over_compressed_group_relocates(self, setup):
        """DMA overwriting one member of a compressed group must not
        corrupt the other members."""
        controller, llc, dma = setup
        lines = [quad_friendly_line(i) for i in range(4)]
        seed_llc = FakeLLC()
        for i in range(1, 4):
            seed_llc.add(8 + i, lines[i], dirty=True)
        controller.handle_eviction(evicted(8, lines[0]), 0, 0, seed_llc)
        import random

        from tests.lineutils import random_line

        new_data = random_line(random.Random(3))
        dma.write_block(9, new_data)
        assert dma.read_block(9, 1) == new_data
        for i in (0, 2, 3):
            assert dma.read_block(8 + i, 1) == lines[i]

    def test_unaligned_write_rejected(self, setup):
        _, _, dma = setup
        with pytest.raises(ValueError):
            dma.write_block(0, b"\x00" * 65)


class TestDMAWriteStaleness:
    def test_write_invalidates_compressed_copy_even_when_predicted(self, setup):
        """Regression: after a DMA write to a quad member, a read that
        (correctly, per LCT history) predicts QUAD must not see the old
        quad's stale data."""
        controller, llc, dma = setup
        lines = [quad_friendly_line(i) for i in range(4)]
        seed_llc = FakeLLC()
        for i in range(1, 4):
            seed_llc.add(8 + i, lines[i], dirty=True)
        controller.handle_eviction(evicted(8, lines[0]), 0, 0, seed_llc)
        # teach the LCT that this page is quad-compressed
        controller.read_line(10, 0, 0, FakeLLC())
        import random

        from tests.lineutils import random_line

        new_data = random_line(random.Random(11))
        dma.write_block(9, new_data)
        result = controller.read_line(9, 0, 0, FakeLLC())
        assert result.data == new_data
        # and the other members survived the relocation
        for i in (0, 2, 3):
            assert controller.read_line(8 + i, 0, 0, FakeLLC()).data == lines[i]

"""Unit tests for the PTMC controller's read and eviction paths."""

import hashlib

import pytest

from repro.core.lit import LITPolicy
from repro.core.markers import SlotKind, invert
from repro.core.policy import AlwaysOffPolicy, AlwaysOnPolicy
from repro.core.ptmc import PTMCConfig, PTMCController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.types import Level
from tests.controller_harness import FakeLLC, category_counts, evicted, make_ptmc
from tests.lineutils import pointer_line, quad_friendly_line, zero_line


@pytest.fixture
def ptmc():
    return make_ptmc()


@pytest.fixture
def llc():
    return FakeLLC()


def compressible_lines(n=4):
    return [quad_friendly_line(variant=i) for i in range(n)]


def slot_kind(ptmc, slot):
    return ptmc.markers.classify(slot, ptmc.memory.read(slot)).kind


class TestUncompressedPath:
    def test_read_untouched_memory(self, ptmc, llc):
        result = ptmc.read_line(8, 0, 0, llc)
        assert result.data == zero_line()
        assert result.level is Level.UNCOMPRESSED
        assert result.accesses == 1
        assert not result.extra_lines

    def test_dirty_eviction_writes_home(self, ptmc, llc):
        data = bytes(range(64))
        ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        assert ptmc.memory.read(9) == data
        assert ptmc.read_line(9, 0, 0, llc).data == data

    def test_clean_unrelocated_eviction_is_free(self, ptmc, llc):
        before = ptmc.dram.stats.total_accesses
        ptmc.handle_eviction(evicted(9, zero_line(), dirty=False), 0, 0, llc)
        assert ptmc.dram.stats.total_accesses == before


class TestCompaction:
    def test_quad_compaction(self, ptmc, llc):
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        # ganged eviction pulled the partners out
        assert sorted(llc.force_evicted) == [9, 10, 11]
        # slot 8 classifies as a quad; homes 9..11 are invalidated
        assert slot_kind(ptmc, 8) is SlotKind.QUAD
        for home in (9, 10, 11):
            assert slot_kind(ptmc, home) is SlotKind.INVALID
        assert ptmc.invalidate_writes == 3
        assert category_counts(ptmc)["invalidate_write"] == 3

    def test_quad_lines_all_readable(self, ptmc, llc):
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        for i, line in enumerate(lines):
            assert ptmc.read_line(8 + i, 0, 0, FakeLLC()).data == line

    def test_quad_read_cofetches_all(self, ptmc, llc):
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        result = ptmc.read_line(8, 0, 0, FakeLLC())
        assert result.level is Level.QUAD
        assert set(result.extra_lines) == {9, 10, 11}
        assert result.extra_lines[10] == lines[2]

    def test_pair_compaction_when_quad_absent(self, ptmc, llc):
        lines = [pointer_line(base=0x7F0011000000), pointer_line(base=0x7F0022000000)]
        llc.add(13, lines[1], dirty=True)
        ptmc.handle_eviction(evicted(12, lines[0]), 0, 0, llc)
        assert llc.force_evicted == [13]
        assert slot_kind(ptmc, 12) is SlotKind.PAIR
        assert slot_kind(ptmc, 13) is SlotKind.INVALID

    def test_incompressible_neighbours_stay_uncompressed(self, ptmc, llc):
        import random

        from tests.lineutils import random_line

        rng = random.Random(1)
        llc.add(13, random_line(rng), dirty=True)
        ptmc.handle_eviction(evicted(12, random_line(rng)), 0, 0, llc)
        assert slot_kind(ptmc, 12) is SlotKind.UNCOMPRESSED
        assert ptmc.invalidate_writes == 0
        assert category_counts(ptmc) == {"data_write": 1}
        # the resident neighbour was NOT ganged out (no compaction happened)
        assert 13 in llc.lines
        assert llc.force_evicted == []

    def test_absent_neighbours_no_compaction(self, ptmc, llc):
        ptmc.handle_eviction(evicted(12, zero_line()), 0, 0, llc)
        assert slot_kind(ptmc, 12) is SlotKind.UNCOMPRESSED
        assert category_counts(ptmc) == {"data_write": 1}

    def test_clean_compaction_counts_clean_writeback(self, ptmc, llc):
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False)
        ptmc.handle_eviction(evicted(8, lines[0], dirty=False), 0, 0, llc)
        assert ptmc.clean_writebacks == 1
        assert category_counts(ptmc)["clean_writeback"] == 1


class TestSteadyState:
    def _compact(self, ptmc, lines):
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)

    def test_clean_unchanged_group_eviction_free(self, ptmc):
        lines = compressible_lines()
        self._compact(ptmc, lines)
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False, fill_level=Level.QUAD)
        before = ptmc.dram.stats.total_accesses
        ptmc.handle_eviction(
            evicted(8, lines[0], dirty=False, fill_level=Level.QUAD), 0, 0, llc
        )
        assert ptmc.dram.stats.total_accesses == before  # no traffic at all
        assert sorted(llc.force_evicted) == [9, 10, 11]

    def test_dirty_group_rewritten_in_place(self, ptmc):
        lines = compressible_lines()
        self._compact(ptmc, lines)
        updated = quad_friendly_line(variant=9)
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False, fill_level=Level.QUAD)
        before = category_counts(ptmc)
        ptmc.handle_eviction(
            evicted(8, updated, dirty=True, fill_level=Level.QUAD), 0, 0, llc
        )
        # one write of slot 8, no invalidate
        assert category_counts(ptmc) == {**before, "data_write": before["data_write"] + 1}
        assert slot_kind(ptmc, 8) is SlotKind.QUAD
        assert ptmc.read_line(8, 0, 0, FakeLLC()).data == updated

    def test_update_breaking_group_relocates_members(self, ptmc):
        import random

        from tests.lineutils import random_line

        lines = compressible_lines()
        self._compact(ptmc, lines)
        scrambled = random_line(random.Random(2))
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False, fill_level=Level.QUAD)
        ptmc.handle_eviction(
            evicted(8, scrambled, dirty=True, fill_level=Level.QUAD), 0, 0, llc
        )
        # everyone must be readable afterwards
        probe = FakeLLC()
        assert ptmc.read_line(8, 0, 0, probe).data == scrambled
        for i in range(1, 4):
            assert ptmc.read_line(8 + i, 0, 0, probe).data == lines[i]

    def test_quad_to_pairs_transition(self, ptmc):
        lines = compressible_lines()
        self._compact(ptmc, lines)
        # replace the first pair with pointer data: quad no longer fits,
        # but each pair still does
        new0 = pointer_line(base=0x7F00AA000000)
        new1 = pointer_line(base=0x7F00BB000000)
        llc = FakeLLC()
        llc.add(9, new1, dirty=True, fill_level=Level.QUAD)
        llc.add(10, lines[2], dirty=False, fill_level=Level.QUAD)
        llc.add(11, lines[3], dirty=False, fill_level=Level.QUAD)
        ptmc.handle_eviction(
            evicted(8, new0, dirty=True, fill_level=Level.QUAD), 0, 0, llc
        )
        assert slot_kind(ptmc, 8) is SlotKind.PAIR
        assert slot_kind(ptmc, 10) is SlotKind.PAIR
        probe = FakeLLC()
        assert ptmc.read_line(8, 0, 0, probe).data == new0
        assert ptmc.read_line(9, 0, 0, probe).data == new1
        assert ptmc.read_line(10, 0, 0, probe).data == lines[2]
        assert ptmc.read_line(11, 0, 0, probe).data == lines[3]


class TestLLPIntegration:
    def test_prediction_learns_from_reads(self, ptmc, llc):
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        # first predicted read of line 9 may mispredict; second must not
        ptmc.read_line(9, 0, 0, FakeLLC())
        result = ptmc.read_line(9, 0, 0, FakeLLC())
        assert result.accesses == 1
        assert not result.mispredicted

    def test_mispredict_counts_extra_access(self, ptmc, llc):
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        # LCT still says UNCOMPRESSED for this page => reads home, finds
        # Marker-IL, retries at the quad slot
        result = ptmc.read_line(9, 0, 0, FakeLLC())
        assert result.accesses == 2
        assert result.mispredicted
        assert category_counts(ptmc) == {
            "data_write": 1,
            "invalidate_write": 3,
            "data_read": 1,
            "mispredict_read": 1,
        }
        assert ptmc.llp.mispredictions == 1
        assert ptmc.llp.extra_reissues == 0

    def test_group_base_never_predicted(self, ptmc, llc):
        before = ptmc.llp.predictions
        ptmc.read_line(8, 0, 0, llc)
        assert ptmc.llp.predictions == before


class TestInversion:
    def test_colliding_write_inverted_and_tracked(self, ptmc, llc):
        data = b"\x33" * 60 + ptmc.markers.marker(9, Level.PAIR)
        ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        assert 9 in ptmc.lit
        assert ptmc.memory.read(9) == invert(data)
        assert ptmc.inversions == 1

    def test_inverted_line_reads_back_correctly(self, ptmc, llc):
        data = b"\x33" * 60 + ptmc.markers.marker(9, Level.QUAD)
        ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        assert ptmc.read_line(9, 0, 0, llc).data == data

    def test_invalid_marker_collision_inverted(self, ptmc, llc):
        data = ptmc.markers.invalid_marker(9)
        ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        assert 9 in ptmc.lit
        assert ptmc.read_line(9, 0, 0, llc).data == data

    def test_rewrite_without_collision_clears_lit(self, ptmc, llc):
        data = b"\x33" * 60 + ptmc.markers.marker(9, Level.PAIR)
        ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        benign = bytes(range(64))
        ptmc.handle_eviction(evicted(9, benign), 0, 0, llc)
        assert 9 not in ptmc.lit
        assert ptmc.read_line(9, 0, 0, llc).data == benign

    def test_tail_matching_inverted_marker_not_inverted(self, ptmc, llc):
        # data that looks like an inverted line but never collided
        data = b"\x44" * 60 + invert(ptmc.markers.marker(9, Level.PAIR))
        ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        assert 9 not in ptmc.lit
        assert ptmc.read_line(9, 0, 0, llc).data == data


def noise_line(loc):
    """Incompressible first-touch contents of slot ``loc``."""
    return hashlib.sha512(loc.to_bytes(8, "little")).digest()


class TestFirstTouch:
    """New pages are installed uncompressed, so a slot nobody wrote holds
    its own line and carries no marker, whatever its tail: PTMC reads it
    by that rule, unrendered, and never classifies it."""

    @staticmethod
    def make(contents=None, renders=None, config=None):
        """Static PTMC over memory whose never-written slot ``loc`` holds
        ``contents[loc]`` (else noise), logging each render."""
        contents = {} if contents is None else contents

        def render(loc):
            if renders is not None:
                renders.append(loc)
            return contents.get(loc) or noise_line(loc)

        memory = PhysicalMemory(1 << 16, initial_content=render)
        return PTMCController(memory, DRAMSystem(), config=config or PTMCConfig())

    @pytest.mark.parametrize("addr, level", [(8, Level.QUAD), (10, Level.PAIR)])
    def test_line_whose_tail_is_its_slot_marker_reads_as_itself(self, llc, addr, level):
        contents = {}
        ptmc = self.make(contents)
        line = contents[addr] = noise_line(addr)[:60] + ptmc.markers.marker(addr, level)
        result = ptmc.read_line(addr, 0, 0, llc)
        assert result.data == line
        assert result.level is Level.UNCOMPRESSED
        assert (result.accesses, dict(result.extra_lines)) == (1, {})

    def test_group_base_with_quad_marker_tail_does_not_hold_its_neighbour(self, llc):
        contents = {}
        ptmc = self.make(contents)
        contents[8] = noise_line(8)[:60] + ptmc.markers.marker(8, Level.QUAD)
        ptmc.llp.update(9, Level.QUAD)  # probe the group base first
        result = ptmc.read_line(9, 0, 0, llc)
        assert result.data == noise_line(9)
        assert result.level is Level.UNCOMPRESSED
        assert (result.accesses, result.mispredicted) == (2, True)

    def test_retain_lines_eviction_sees_no_group_in_a_first_touch_slot(self, llc):
        contents = {}
        ptmc = self.make(contents, config=PTMCConfig(ganged_eviction=False))
        contents[8] = noise_line(8)[:60] + ptmc.markers.marker(8, Level.QUAD)
        ptmc.handle_eviction(evicted(9, noise_line(9), dirty=False), 0, 0, llc)
        assert category_counts(ptmc) == {}
        assert ptmc.memory.resident_lines() == {}

    def test_read_renders_marks_and_stores_nothing_until_data_is_read(self, llc):
        renders = []
        ptmc = self.make(renders=renders)
        for addr in (8, 9, 10, 11):
            result = ptmc.read_line(addr, 0, 0, llc)
            assert result.level is Level.UNCOMPRESSED
            assert renders == []
            assert ptmc.markers._cache == {}
            assert len(ptmc.memory) == 0
            eager = PhysicalMemory(1 << 16, initial_content=noise_line).read(addr)
            assert result.data == eager
            assert renders == [addr]
            renders.clear()
        assert len(ptmc.memory) == 0


class TestLITOverflow:
    def test_rekey_sweep_preserves_contents(self, llc):
        config = PTMCConfig(lit_capacity=2, lit_policy=LITPolicy.REKEY)
        ptmc = make_ptmc(config=config)
        # fill memory with a compressed quad and some plain lines
        lines = compressible_lines()
        setup = FakeLLC()
        for i in range(1, 4):
            setup.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, setup)
        plain = bytes(range(64))
        ptmc.handle_eviction(evicted(20, plain), 0, 0, llc)
        # force collisions until the LIT overflows and a rekey happens
        for addr in (30, 31, 33):
            data = b"\x55" * 60 + ptmc.markers.marker(addr, Level.PAIR)
            ptmc.handle_eviction(evicted(addr, data), 0, 0, FakeLLC())
        assert ptmc.rekeys >= 1
        # everything still reads back correctly under the new markers
        probe = FakeLLC()
        for i in range(4):
            assert ptmc.read_line(8 + i, 0, 0, probe).data == lines[i]
        assert ptmc.read_line(20, 0, 0, probe).data == plain

    def test_memory_mapped_policy_spills(self, llc):
        config = PTMCConfig(lit_capacity=1, lit_policy=LITPolicy.MEMORY_MAPPED)
        ptmc = make_ptmc(config=config)
        for addr in (30, 31):
            data = b"\x55" * 60 + ptmc.markers.marker(addr, Level.PAIR)
            ptmc.handle_eviction(evicted(addr, data), 0, 0, llc)
        assert ptmc.lit.overflows == 1
        # both lines remain readable; the spilled one costs a LIT access
        assert ptmc.read_line(30, 0, 0, llc).data[-4:] == ptmc.markers.marker(30, Level.PAIR)
        assert ptmc.read_line(31, 0, 0, llc).data[-4:] == ptmc.markers.marker(31, Level.PAIR)
        assert category_counts(ptmc).get("maintenance", 0) >= 1


class TestPolicyIntegration:
    def test_disabled_compression_skips_compaction(self, llc):
        ptmc = make_ptmc(policy=AlwaysOffPolicy())
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        assert slot_kind(ptmc, 8) is SlotKind.UNCOMPRESSED
        assert 9 in llc.lines  # neighbours untouched
        assert llc.force_evicted == []

    def test_sampled_group_compresses_despite_disabled_policy(self):
        ptmc = make_ptmc(policy=AlwaysOffPolicy())
        llc = FakeLLC(sampled_addrs={2})  # group index 2 = lines 8..11
        lines = compressible_lines()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        assert slot_kind(ptmc, 8) is SlotKind.QUAD
        assert sorted(llc.force_evicted) == [9, 10, 11]

    def test_disabled_preserves_existing_groups(self):
        ptmc = make_ptmc(policy=AlwaysOnPolicy())
        lines = compressible_lines()
        setup = FakeLLC()
        for i in range(1, 4):
            setup.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, setup)
        # switch compression off; clean eviction of the group must be free
        ptmc.policy = AlwaysOffPolicy()
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False, fill_level=Level.QUAD)
        before = ptmc.dram.stats.total_accesses
        ptmc.handle_eviction(
            evicted(8, lines[0], dirty=False, fill_level=Level.QUAD), 0, 0, llc
        )
        assert ptmc.dram.stats.total_accesses == before
        # quad stays resident in memory
        assert ptmc.markers.classify(8, ptmc.memory.read(8)).kind is SlotKind.QUAD

    def test_disabled_dirty_group_rewritten_compressed(self):
        ptmc = make_ptmc(policy=AlwaysOnPolicy())
        lines = compressible_lines()
        setup = FakeLLC()
        for i in range(1, 4):
            setup.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, setup)
        ptmc.policy = AlwaysOffPolicy()
        updated = quad_friendly_line(variant=5)
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False, fill_level=Level.QUAD)
        before = category_counts(ptmc)
        ptmc.handle_eviction(
            evicted(8, updated, dirty=True, fill_level=Level.QUAD), 0, 0, llc
        )
        assert category_counts(ptmc) == {**before, "data_write": before["data_write"] + 1}
        assert slot_kind(ptmc, 8) is SlotKind.QUAD
        assert ptmc.read_line(8, 0, 0, FakeLLC()).data == updated


class TestStorageBits:
    def test_under_300_bytes(self, ptmc):
        assert ptmc.total_storage_bytes() < 300

    def test_structures_present(self, ptmc):
        bits = ptmc.storage_bits()
        assert bits["line_inversion_table"] == 64 * 8
        assert bits["line_location_predictor"] == 128 * 8


class TestMarkerWidth:
    """PTMC takes no marker narrower than the paper's 4 bytes, its width
    for a 16 GB memory (``MarkerScheme`` itself accepts 1-8 bytes)."""

    @pytest.mark.parametrize("marker_size", [1, 2, 3])
    def test_narrow_markers_rejected(self, marker_size):
        with pytest.raises(ValueError, match="marker_size must be an int >= 4"):
            PTMCConfig(marker_size=marker_size)

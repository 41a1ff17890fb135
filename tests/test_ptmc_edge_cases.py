"""Additional PTMC edge-case tests: second pair, transitions, reads of
stale slots, and bandwidth-accounting invariants."""

import pytest

from repro.core.base_controller import NullLLCView
from repro.core.markers import SlotKind
from repro.types import Level
from tests.controller_harness import FakeLLC, category_counts, evicted, make_ptmc
from tests.lineutils import pointer_line, quad_friendly_line

NULL = NullLLCView()


@pytest.fixture
def ptmc():
    return make_ptmc()


class TestSecondPair:
    """The (G+2, G+3) pair compacts at G+2, independent of (G, G+1)."""

    def test_second_pair_compacts_at_its_own_slot(self, ptmc):
        lines = [pointer_line(base=0x7F0033000000), pointer_line(base=0x7F0044000000)]
        llc = FakeLLC()
        llc.add(11, lines[1], dirty=True)
        ptmc.handle_eviction(evicted(10, lines[0]), 0, 0, llc)
        assert llc.force_evicted == [11]
        assert ptmc.markers.classify(10, ptmc.memory.read(10)).kind is SlotKind.PAIR
        # first pair's slots untouched
        assert ptmc.markers.classify(8, ptmc.memory.read(8)).kind is SlotKind.UNCOMPRESSED

    def test_both_pairs_coexist(self, ptmc):
        first = [pointer_line(base=0x7F0011000000), pointer_line(base=0x7F0022000000)]
        second = [pointer_line(base=0x7F0033000000), pointer_line(base=0x7F0044000000)]
        llc = FakeLLC()
        llc.add(9, first[1], dirty=True)
        ptmc.handle_eviction(evicted(8, first[0]), 0, 0, llc)
        llc2 = FakeLLC()
        llc2.add(11, second[1], dirty=True)
        ptmc.handle_eviction(evicted(10, second[0]), 0, 0, llc2)
        for addr, data in [(8, first[0]), (9, first[1]), (10, second[0]), (11, second[1])]:
            assert ptmc.read_line(addr, 0, 0, NULL).data == data

    def test_read_g3_with_three_candidates(self, ptmc):
        """G+3 has candidates at G (quad), G+2 (pair) and home."""
        second = [pointer_line(base=0x7F0033000000), pointer_line(base=0x7F0044000000)]
        llc = FakeLLC()
        llc.add(11, second[1], dirty=True)
        ptmc.handle_eviction(evicted(10, second[0]), 0, 0, llc)
        result = ptmc.read_line(11, 0, 0, NULL)
        assert result.data == second[1]
        assert result.level is Level.PAIR
        assert result.accesses <= 3


class TestTransitions:
    def test_pair_then_quad(self, ptmc):
        """Two pairs upgrade to a quad once all four lines co-evict."""
        lines = [quad_friendly_line(i) for i in range(4)]
        llc = FakeLLC()
        llc.add(9, lines[1], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        # now evict the second pair with the first pair re-resident
        llc2 = FakeLLC()
        llc2.add(8, lines[0], dirty=False, fill_level=Level.PAIR)
        llc2.add(9, lines[1], dirty=False, fill_level=Level.PAIR)
        llc2.add(11, lines[3], dirty=True)
        ptmc.handle_eviction(evicted(10, lines[2]), 0, 0, llc2)
        assert sorted(llc2.force_evicted) == [8, 9, 11]
        assert ptmc.markers.classify(8, ptmc.memory.read(8)).kind is SlotKind.QUAD
        read = ptmc.read_line(8, 0, 0, NULL)
        assert read.level is Level.QUAD
        assert set(read.extra_lines) == {9, 10, 11}

    def test_quad_downgrade_to_uncompressed(self, ptmc):
        import random

        from tests.lineutils import random_line

        lines = [quad_friendly_line(i) for i in range(4)]
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        # all four come back dirty and incompressible
        rng = random.Random(4)
        new = [random_line(rng) for _ in range(4)]
        llc2 = FakeLLC()
        for i in range(1, 4):
            llc2.add(8 + i, new[i], dirty=True, fill_level=Level.QUAD)
        ptmc.handle_eviction(
            evicted(8, new[0], dirty=True, fill_level=Level.QUAD), 0, 0, llc2
        )
        for i in range(4):
            result = ptmc.read_line(8 + i, 0, 0, NULL)
            assert result.data == new[i]
            assert result.level is Level.UNCOMPRESSED


class TestStaleSlots:
    def test_stale_home_not_misread(self, ptmc):
        """After compaction, the odd line's home holds Marker-IL, so a
        (mis)predicted read of the home cannot return stale data."""
        lines = [pointer_line(base=0x7F0055000000), pointer_line(base=0x7F0066000000)]
        # first, line 9 lives at home
        ptmc.handle_eviction(evicted(9, lines[1]), 0, 0, NULL)
        # then the pair compacts at slot 8
        llc = FakeLLC()
        llc.add(9, lines[1], dirty=False)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        assert ptmc.markers.classify(9, ptmc.memory.read(9)).kind is SlotKind.INVALID
        assert ptmc.read_line(9, 0, 0, NULL).data == lines[1]

    def test_invalidate_not_repeated(self, ptmc):
        """Re-compacting the same pair must not re-invalidate slot 9."""
        lines = [pointer_line(base=0x7F0055000000), pointer_line(base=0x7F0066000000)]
        llc = FakeLLC()
        llc.add(9, lines[1], dirty=False)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        first_invalidates = ptmc.invalidate_writes
        updated = pointer_line(base=0x7F0077000000)
        llc2 = FakeLLC()
        llc2.add(9, lines[1], dirty=False, fill_level=Level.PAIR)
        ptmc.handle_eviction(
            evicted(8, updated, dirty=True, fill_level=Level.PAIR), 0, 0, llc2
        )
        assert ptmc.invalidate_writes == first_invalidates


class TestBandwidthAccounting:
    def test_first_access_never_counted_as_mispredict(self, ptmc):
        ptmc.read_line(8, 0, 0, NULL)
        ptmc.read_line(9, 0, 0, NULL)
        cats = category_counts(ptmc)
        assert cats.get("mispredict_read", 0) == 0

    def test_dirty_group_write_is_data_write(self, ptmc):
        lines = [quad_friendly_line(i) for i in range(4)]
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=False)
        ptmc.handle_eviction(evicted(8, lines[0], dirty=True), 0, 0, llc)
        cats = category_counts(ptmc)
        # one dirty member makes the combined write a demand write, not a
        # compression overhead
        assert cats.get("data_write", 0) == 1
        assert cats.get("clean_writeback", 0) == 0

    def test_reads_by_level_statistics(self, ptmc):
        lines = [quad_friendly_line(i) for i in range(4)]
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ptmc.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        ptmc.read_line(8, 0, 0, NULL)
        ptmc.read_line(20, 0, 0, NULL)
        assert ptmc.reads_by_level[Level.QUAD] == 1
        assert ptmc.reads_by_level[Level.UNCOMPRESSED] == 1

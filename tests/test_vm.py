"""Tests for the virtual-memory page table."""

import pytest

from repro.vm.page_table import LINES_PER_PAGE, PageTable


class TestTranslation:
    def test_offset_preserved(self):
        pt = PageTable(1 << 16)
        paddr = pt.translate(0, 5)
        assert paddr % LINES_PER_PAGE == 5

    def test_stable_mapping(self):
        pt = PageTable(1 << 16)
        assert pt.translate(0, 5) == pt.translate(0, 5)

    def test_lines_of_page_contiguous(self):
        pt = PageTable(1 << 16)
        base = pt.translate(0, 0)
        for offset in range(LINES_PER_PAGE):
            assert pt.translate(0, offset) == base + offset

    def test_groups_never_straddle_pages(self):
        pt = PageTable(1 << 16)
        for vline in range(0, 256, 4):
            group = [pt.translate(0, vline + i) for i in range(4)]
            assert group == list(range(group[0], group[0] + 4))

    def test_cores_get_distinct_frames(self):
        pt = PageTable(1 << 16)
        a = pt.translate(0, 0) // LINES_PER_PAGE
        b = pt.translate(1, 0) // LINES_PER_PAGE
        assert a != b

    def test_reverse_lookup(self):
        pt = PageTable(1 << 16)
        paddr = pt.translate(3, 130)
        frame = paddr // LINES_PER_PAGE
        assert pt.reverse(frame) == (3, 130 // LINES_PER_PAGE)


class TestLimitsAndDeterminism:
    def test_capacity_must_be_whole_pages(self):
        with pytest.raises(ValueError):
            PageTable(100)

    def test_exhaustion(self):
        pt = PageTable(2 * LINES_PER_PAGE)
        pt.translate(0, 0)
        pt.translate(0, LINES_PER_PAGE)
        with pytest.raises(MemoryError):
            pt.translate(0, 2 * LINES_PER_PAGE)

    def test_deterministic_given_seed(self):
        a = PageTable(1 << 16, seed=7)
        b = PageTable(1 << 16, seed=7)
        for vline in (0, 64, 129, 1000):
            assert a.translate(2, vline) == b.translate(2, vline)

    def test_seed_changes_layout(self):
        a = PageTable(1 << 16, seed=7)
        b = PageTable(1 << 16, seed=8)
        assert any(
            a.translate(0, v) != b.translate(0, v) for v in (0, 64, 128)
        )

    def test_collision_probing_fills_all_frames(self):
        frames = 8
        pt = PageTable(frames * LINES_PER_PAGE)
        allocated = {pt.translate(0, i * LINES_PER_PAGE) // LINES_PER_PAGE for i in range(frames)}
        assert len(allocated) == frames

"""Unit tests for the baseline controllers (uncompressed, table-TMC, ideal, prefetch)."""

import random

import pytest

from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY
from repro.core.ideal import IdealTMCController
from repro.core.metadata_table import MetadataTableConfig, MetadataTableController
from repro.core.packing import payload_budget
from repro.core.prefetch import NextLinePrefetchController
from repro.core.uncompressed import UncompressedController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.types import _NO_EXTRA_LINES, Category, Level, ReadResult, StoredVersion
from repro.util.hashing import KeyedHash
from repro.workloads.data_patterns import PatternKind, render_pattern
from tests.controller_harness import FakeLLC, category_counts, evicted
from tests.lineutils import Versions, quad_friendly_line, random_line, zero_line


def build(cls, **kwargs):
    memory = PhysicalMemory(1 << 16)
    dram = DRAMSystem()
    return cls(memory, dram, **kwargs)


def first_touch(addr):
    """Distinct first-touch contents per slot (as a workload supplies)."""
    return bytes([addr % 251]) * 64


@pytest.mark.parametrize("cls", [UncompressedController, NextLinePrefetchController])
def test_first_touch_read_outlives_a_rewrite_of_its_slot(cls):
    """A read of a never-written slot keeps the value it had when read,
    even once a dirty eviction has rewritten that slot."""
    ctrl = cls(PhysicalMemory(1 << 16, initial_content=first_touch), DRAMSystem())
    result = ctrl.read_line(5, 0, 0, FakeLLC())
    ctrl.handle_eviction(evicted(5, b"\x01" * 64), 0, 0, FakeLLC())
    assert ctrl.memory.read(5) == b"\x01" * 64
    assert result.data == first_touch(5)
    if cls is NextLinePrefetchController:
        assert result.extra_lines == {6: first_touch(6)}


@pytest.mark.parametrize("cls", [UncompressedController, NextLinePrefetchController])
def test_stored_contents_go_to_memory_and_back_unrendered(cls):
    """A dirty victim holding a store's deferred contents is written back
    as it is, and a read of that slot hands the same deferral to the LLC:
    neither baseline renders what it moves."""
    ctrl = build(cls)
    versions = Versions()
    stored = StoredVersion(versions, 5, 3)
    ctrl.handle_eviction(evicted(5, stored), 0, 0, FakeLLC())
    assert ctrl.memory.read_deferred(5) is stored
    llc = FakeLLC()
    llc.add(6, zero_line())  # nothing for the prefetcher to co-fetch
    result = ctrl.read_line(5, 0, 0, llc)
    assert result._data is stored
    assert category_counts(ctrl) == {"data_write": 1, "data_read": 1}
    assert versions.calls == []
    assert result.data == bytes([5, 3]) * 32
    assert versions.calls == [(5, 3)]


def test_prefetcher_co_fetches_stored_contents_as_bytes():
    """``extra_lines`` values are bytes: a co-fetched slot holding a
    store's deferral is rendered, once, and its bytes stored."""
    ctrl = build(NextLinePrefetchController)
    versions = Versions()
    ctrl.handle_eviction(evicted(6, StoredVersion(versions, 6, 1)), 0, 0, FakeLLC())
    result = ctrl.read_line(5, 0, 0, FakeLLC())
    assert result.extra_lines == {6: bytes([6, 1]) * 32}
    assert type(ctrl.memory.read_deferred(6)) is bytes
    assert versions.calls == [(6, 1)]


def test_prefetch_read_without_co_fetch_shares_the_empty_mapping():
    llc = FakeLLC()
    llc.add(6, zero_line())
    result = build(NextLinePrefetchController).read_line(5, 0, 0, llc)
    assert result.extra_lines is _NO_EXTRA_LINES


class TestUncompressed:
    def test_read(self):
        ctrl = build(UncompressedController)
        ctrl.memory.write(5, bytes(range(64)))
        result = ctrl.read_line(5, 0, 0, FakeLLC())
        assert result.data == bytes(range(64))
        assert result.accesses == 1

    def test_dirty_write(self):
        ctrl = build(UncompressedController)
        ctrl.handle_eviction(evicted(5, b"\x01" * 64), 0, 0, FakeLLC())
        assert ctrl.memory.read(5) == b"\x01" * 64
        assert category_counts(ctrl)["data_write"] == 1

    def test_clean_eviction_free(self):
        ctrl = build(UncompressedController)
        ctrl.handle_eviction(evicted(5, b"\x01" * 64, dirty=False), 0, 0, FakeLLC())
        assert ctrl.dram.stats.total_accesses == 0


class TestMetadataTable:
    def _compact_quad(self, ctrl):
        lines = [quad_friendly_line(i) for i in range(4)]
        llc = FakeLLC()
        for i in range(1, 4):
            llc.add(8 + i, lines[i], dirty=True)
        ctrl.handle_eviction(evicted(8, lines[0]), 0, 0, llc)
        return lines

    def test_read_consults_metadata(self):
        ctrl = build(MetadataTableController)
        ctrl.read_line(5, 0, 0, FakeLLC())
        cats = category_counts(ctrl)
        assert cats["metadata_read"] == 1
        assert cats["data_read"] == 1

    def test_metadata_cache_hit_avoids_traffic(self):
        ctrl = build(MetadataTableController)
        ctrl.read_line(5, 0, 0, FakeLLC())
        ctrl.read_line(6, 0, 0, FakeLLC())  # same metadata line
        assert category_counts(ctrl)["metadata_read"] == 1
        assert ctrl.metadata_cache.hit_rate == 0.5

    def test_compaction_updates_csi_for_all_members(self):
        ctrl = build(MetadataTableController)
        self._compact_quad(ctrl)
        for i in range(4):
            assert ctrl._csi_level(8 + i) is Level.QUAD

    def test_compressed_read_returns_group(self):
        ctrl = build(MetadataTableController)
        lines = self._compact_quad(ctrl)
        result = ctrl.read_line(10, 0, 0, FakeLLC())
        assert result.data == lines[2]
        assert result.level is Level.QUAD
        assert set(result.extra_lines) == {8, 9, 11}

    def test_all_lines_readable_after_compaction(self):
        ctrl = build(MetadataTableController)
        lines = self._compact_quad(ctrl)
        for i, line in enumerate(lines):
            assert ctrl.read_line(8 + i, 0, 0, FakeLLC()).data == line

    def test_no_invalidates_ever(self):
        ctrl = build(MetadataTableController)
        self._compact_quad(ctrl)
        assert "invalidate_write" not in category_counts(ctrl)

    def test_dirty_metadata_evicted_to_memory(self):
        config = MetadataTableConfig(cache_bytes=2 * 64, cache_ways=1)
        ctrl = build(MetadataTableController, config=config)
        # dirty one metadata line, then thrash the tiny cache
        self._compact_quad(ctrl)
        for i in range(16):
            ctrl.read_line(i * 1024, 0, 0, FakeLLC())
        assert category_counts(ctrl).get("metadata_write", 0) >= 1

    def test_storage_is_metadata_cache(self):
        ctrl = build(MetadataTableController)
        assert ctrl.storage_bits()["metadata_cache"] == 32 * 1024 * 8


class TestIdeal:
    def test_cofetch_when_group_compressible(self):
        ctrl = build(IdealTMCController)
        memory = ctrl.memory
        for i in range(4):
            memory.write(8 + i, quad_friendly_line(i))
        result = ctrl.read_line(9, 0, 0, FakeLLC())
        assert result.level is Level.QUAD
        assert set(result.extra_lines) == {8, 10, 11}
        assert result.accesses == 1

    def test_no_cofetch_for_random_data(self):
        import random

        ctrl = build(IdealTMCController)
        rng = random.Random(9)
        for i in range(4):
            ctrl.memory.write(8 + i, random_line(rng))
        result = ctrl.read_line(9, 0, 0, FakeLLC())
        assert result.level is Level.UNCOMPRESSED
        assert not result.extra_lines

    def test_pair_cofetch(self):
        import random

        from tests.lineutils import pointer_line

        ctrl = build(IdealTMCController)
        rng = random.Random(9)
        ctrl.memory.write(8, pointer_line(base=0x7F0011000000))
        ctrl.memory.write(9, pointer_line(base=0x7F0022000000))
        ctrl.memory.write(10, random_line(rng))
        ctrl.memory.write(11, random_line(rng))
        result = ctrl.read_line(8, 0, 0, FakeLLC())
        assert result.level is Level.PAIR
        assert set(result.extra_lines) == {9}

    def test_combined_write_credit(self):
        ctrl = build(IdealTMCController)
        for i in range(4):
            ctrl.memory.write(8 + i, quad_friendly_line(i))
        # four dirty evictions of a quad-compressible group: 1 DRAM write
        for i in range(4):
            ctrl.handle_eviction(evicted(8 + i, quad_friendly_line(i)), 0, 0, FakeLLC())
        assert category_counts(ctrl)["data_write"] == 1

    def test_incompressible_writes_not_combined(self):
        import random

        ctrl = build(IdealTMCController)
        rng = random.Random(5)
        for i in range(4):
            ctrl.handle_eviction(evicted(8 + i, random_line(rng)), 0, 0, FakeLLC())
        assert category_counts(ctrl)["data_write"] == 4

    def test_clean_eviction_free(self):
        ctrl = build(IdealTMCController)
        ctrl.handle_eviction(evicted(5, zero_line(), dirty=False), 0, 0, FakeLLC())
        assert ctrl.dram.stats.total_accesses == 0

    def test_matches_the_check_per_level_reference(self):
        """The one-pass decision gives what a quad then a pair ``_fits``
        check gave: every read's level, lines and timing, every write and
        write credit, the same DRAM traffic and the same slots read."""
        levels = set()
        for seed in range(6):
            first_touch, written, ops = _ideal_scenario(seed)
            ctrl = _build_ideal(IdealTMCController, first_touch, written)
            ref = _build_ideal(FrozenIdeal, first_touch, written)
            for addr, data, dirty in ops:
                if data is None:
                    got = ctrl.read_line(addr, 0, 0, FakeLLC())
                    want = ref.read_line(addr, 0, 0, FakeLLC())
                    assert (got.level, got.data, dict(got.extra_lines)) == (
                        want.level, want.data, dict(want.extra_lines)
                    )
                    assert (got.completion, got.accesses) == (want.completion, want.accesses)
                    levels.add(got.level)
                else:
                    ctrl.handle_eviction(evicted(addr, data, dirty), 0, 0, FakeLLC())
                    ref.handle_eviction(evicted(addr, data, dirty), 0, 0, FakeLLC())
                assert category_counts(ctrl) == category_counts(ref)
                assert ctrl._write_credit == ref._write_credit
                assert ctrl.memory.resident_lines() == ref.memory.resident_lines()
        assert levels == set(Level)

    def test_one_decision_reads_and_sizes_each_member_once(self, monkeypatch):
        reads, sized = [], []
        read, compressed_size = PhysicalMemory.read, HybridCompressor.compressed_size

        def counted_read(memory, line_addr):
            reads.append(line_addr)
            return read(memory, line_addr)

        def counted_size(compressor, line):
            sized.append(line)
            return compressed_size(compressor, line)

        monkeypatch.setattr(PhysicalMemory, "read", counted_read)
        monkeypatch.setattr(HybridCompressor, "compressed_size", counted_size)
        decisions = 0
        for seed in range(6):
            first_touch, written, ops = _ideal_scenario(seed)
            ctrl = _build_ideal(IdealTMCController, first_touch, written)
            for addr, data, dirty in ops:
                del reads[:], sized[:]
                if data is None:
                    ctrl.read_line(addr, 0, 0, FakeLLC())
                else:
                    ctrl.handle_eviction(evicted(addr, data, dirty), 0, 0, FakeLLC())
                assert len(reads) == len(set(reads))
                assert len(sized) <= len(reads)
                decisions += bool(reads)
        assert decisions > 0


_KEYED = KeyedHash(0x1DEA)
_KINDS = list(PatternKind)


def _member(rng, kind):
    """A line of family ``kind``, or a random line when ``kind`` is None."""
    if kind is None:
        return random_line(rng)
    return render_pattern(kind, rng.getrandbits(64), _KEYED)


def _group(rng):
    """A group's four lines: mostly one family, the rest any family or
    a random line."""
    family = rng.choice(_KINDS)
    return [
        _member(rng, family if rng.random() < 0.7 else rng.choice(_KINDS + [None]))
        for _ in range(4)
    ]


def _ideal_scenario(seed, groups=8, steps=150):
    """Seeded first-touch contents, written slots and operations.

    About half the slots are written before the first operation; the
    rest hold their first-touch lines until an eviction writes them.  An
    operation is ``(addr, None, False)`` for a read, else ``(addr, data,
    dirty)`` for an eviction.
    """
    rng = random.Random(seed)
    count = groups * address_map.GROUP_SIZE
    first_touch = [line for _ in range(groups) for line in _group(rng)]
    later = [line for _ in range(groups) for line in _group(rng)]
    written = {addr: later[addr] for addr in range(count) if rng.random() < 0.5}
    ops = []
    for _ in range(steps):
        addr = rng.randrange(count)
        if rng.random() < 0.5:
            ops.append((addr, None, False))
        else:
            data = _member(rng, rng.choice(_KINDS + [None]))
            ops.append((addr, data, rng.random() < 0.85))
    return first_touch, written, ops


def _build_ideal(cls, first_touch, written):
    memory = PhysicalMemory(1 << 16, initial_content=first_touch.__getitem__)
    for addr, data in written.items():
        memory.write(addr, data)
    return cls(memory, DRAMSystem())


class FrozenIdeal(IdealTMCController):
    """The oracle as a quad check, then a pair check, each reading and
    sizing its members anew; the read then reads the lines it returns."""

    def _fits(self, addrs, level):
        budget = payload_budget(level)
        total = 0
        for addr in addrs:
            size = self.compressor.compressed_size(self.memory.read(addr))
            if size >= 64:
                return False
            total += size
            if total > budget:
                return False
        return True

    def read_line(self, addr, now, core_id, llc):
        completion = self.dram.access(addr, now, Category.DATA_READ)
        group = address_map.group_lines(addr)
        if self._fits(group, Level.QUAD):
            co_fetched, level = group, Level.QUAD
        else:
            pair = [addr & ~1, (addr & ~1) + 1]
            if self._fits(pair, Level.PAIR):
                co_fetched, level = pair, Level.PAIR
            else:
                co_fetched, level = [addr], Level.UNCOMPRESSED
        extras = {m: self.memory.read(m) for m in co_fetched if m != addr}
        if level is not Level.UNCOMPRESSED:
            completion += DECOMPRESSION_LATENCY
        return ReadResult(addr, self.memory.read(addr), level, completion, 1, extras)

    def handle_eviction(self, evicted, now, core_id, llc):
        if not evicted.dirty:
            return
        self.memory.write(evicted.addr, evicted.data)
        group = address_map.group_lines(evicted.addr)
        if self._fits(group, Level.QUAD):
            slot, credit = address_map.group_base(evicted.addr), 3
        else:
            pair = [evicted.addr & ~1, (evicted.addr & ~1) + 1]
            if self._fits(pair, Level.PAIR):
                slot, credit = address_map.pair_base(evicted.addr), 1
            else:
                slot, credit = evicted.addr, 0
        remaining = self._write_credit.get(slot, 0)
        if remaining > 0:
            self._write_credit[slot] = remaining - 1
            return
        self.dram.access(evicted.addr, now, Category.DATA_WRITE)
        if credit:
            self._write_credit[slot] = credit


class TestPrefetch:
    def test_next_line_prefetched(self):
        ctrl = build(NextLinePrefetchController)
        result = ctrl.read_line(5, 0, 0, FakeLLC())
        assert set(result.extra_lines) == {6}
        cats = category_counts(ctrl)
        assert cats["prefetch_read"] == 1
        assert ctrl.prefetches_issued == 1

    def test_resident_filter_suppresses_prefetch(self):
        ctrl = build(NextLinePrefetchController)
        llc = FakeLLC()
        llc.add(6, zero_line())  # the next line is already in the LLC
        result = ctrl.read_line(5, 0, 0, llc)
        assert not result.extra_lines
        assert ctrl.prefetches_issued == 0
        assert "prefetch_read" not in category_counts(ctrl)

    def test_prefetch_at_memory_end_skipped(self):
        ctrl = build(NextLinePrefetchController)
        last = ctrl.memory.capacity_lines - 1
        result = ctrl.read_line(last, 0, 0, FakeLLC())
        assert not result.extra_lines

    def test_prefetch_costs_bandwidth(self):
        """The key contrast with PTMC: the extra line is NOT free."""
        ctrl = build(NextLinePrefetchController)
        ctrl.read_line(5, 0, 0, FakeLLC())
        assert ctrl.dram.stats.total_accesses == 2


class TestPrefetchPageBoundary:
    def test_prefetch_stops_at_page_boundary(self):
        ctrl = build(NextLinePrefetchController)
        # line 63 is the last line of its 4KB page: no prefetch of line 64,
        # which belongs to an unrelated physical frame
        result = ctrl.read_line(63, 0, 0, FakeLLC())
        assert not result.extra_lines
        assert ctrl.prefetches_issued == 0

    def test_prefetch_within_page(self):
        ctrl = build(NextLinePrefetchController)
        result = ctrl.read_line(62, 0, 0, FakeLLC())
        assert set(result.extra_lines) == {63}

"""Tests for the DRAM timing model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cache import CacheLine
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.dram.timing import DDRTiming, DRAMGeometry, ns_to_cycles
from repro.types import Category, Level, ReadResult, StoredVersion
from repro.workloads import WorkloadTraceGenerator, get_workload
from tests.lineutils import Versions


class TestTiming:
    def test_ns_conversion_rounds_up(self):
        assert ns_to_cycles(1.0, 3.2) == 4
        assert ns_to_cycles(0.25, 4.0) == 1

    def test_bus_clock_ratio(self):
        assert DDRTiming().cycles_per_bus_clock == 4

    def test_burst_cycles(self):
        assert DDRTiming().t_burst == 16

    def test_latencies_positive(self):
        timing = DDRTiming()
        assert timing.t_cas > 0
        assert timing.t_rcd > 0
        assert timing.t_rp > 0
        assert timing.t_ras > timing.t_rcd


class TestGeometry:
    def test_channel_interleave_at_group_granularity(self):
        geo = DRAMGeometry(channels=2)
        # all four lines of a group share a channel...
        channels = {geo.decode(addr).channel for addr in range(4)}
        assert len(channels) == 1
        # ...and the next group uses the other channel
        assert geo.decode(4).channel != geo.decode(0).channel

    def test_group_bases_spread_over_channels(self):
        geo = DRAMGeometry(channels=2)
        bases = [geo.decode(g * 4).channel for g in range(16)]
        assert set(bases) == {0, 1}

    def test_single_channel(self):
        geo = DRAMGeometry(channels=1)
        assert geo.decode(12345).channel == 0

    def test_decode_fields_in_range(self):
        geo = DRAMGeometry()
        for addr in (0, 1, 1000, 123456, 2**24):
            decoded = geo.decode(addr)
            assert 0 <= decoded.channel < geo.channels
            assert 0 <= decoded.bank < geo.banks_per_channel
            assert 0 <= decoded.column < geo.lines_per_row

    def test_decode_bijective_on_sample(self):
        geo = DRAMGeometry()
        seen = set()
        for addr in range(4096):
            decoded = geo.decode(addr)
            key = (decoded.channel, decoded.bank, decoded.row, decoded.column)
            assert key not in seen
            seen.add(key)


class TestReadTiming:
    def test_row_miss_then_hit(self):
        dram = DRAMSystem()
        t1 = dram.access(0, 0, Category.DATA_READ)
        t2 = dram.access(1, t1, Category.DATA_READ)
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 1
        # the row hit completes faster than the initial miss
        assert t2 - t1 < t1 - 0

    def test_row_conflict_costs_precharge(self):
        geo = DRAMGeometry()
        dram = DRAMSystem(geometry=geo)
        timing = dram.timing
        same_bank_other_row = geo.channels * geo.lines_per_row * geo.banks_per_channel
        t1 = dram.access(0, 0, Category.DATA_READ)
        t2 = dram.access(same_bank_other_row, t1, Category.DATA_READ)
        assert dram.geometry.decode(0).bank == dram.geometry.decode(same_bank_other_row).bank
        assert dram.stats.row_misses == 2
        # conflict latency includes precharge
        assert (t2 - t1) >= timing.t_rp

    def test_bus_serialises_transfers(self):
        dram = DRAMSystem()
        # two accesses to different banks, same channel, same instant
        geo = dram.geometry
        a, b = 0, geo.channels * geo.lines_per_row  # different banks
        assert geo.decode(a).channel == geo.decode(b).channel
        assert geo.decode(a).bank != geo.decode(b).bank
        t1 = dram.access(a, 0, Category.DATA_READ)
        t2 = dram.access(b, 0, Category.DATA_READ)
        assert t2 >= t1 + dram.timing.t_burst

    def test_different_channels_independent(self):
        dram = DRAMSystem()
        t1 = dram.access(0, 0, Category.DATA_READ)
        t2 = dram.access(4, 0, Category.DATA_READ)  # next group, other channel
        assert t2 == t1  # identical service, no interference


class TestWriteBuffering:
    def test_write_returns_immediately(self):
        dram = DRAMSystem()
        assert dram.access(0, 100, Category.DATA_WRITE) == 100

    def test_writes_drain_into_idle_gaps(self):
        dram = DRAMSystem()
        t1 = dram.access(0, 0, Category.DATA_READ)
        dram.access(8, t1, Category.DATA_WRITE)
        # a read far in the future sees no backlog interference
        far = t1 + 10_000
        t2 = dram.access(1, far, Category.DATA_READ)
        assert t2 - far <= dram.timing.t_cas + dram.timing.t_burst

    def test_full_write_queue_stalls_reads(self):
        dram = DRAMSystem(write_queue_entries=4)
        t = dram.access(0, 0, Category.DATA_READ)
        for i in range(8):
            dram.access(8 + 8 * i, t, Category.DATA_WRITE)
        t2 = dram.access(1, t, Category.DATA_READ)
        # the forced drain pushed the read out by at least the backlog
        assert t2 - t > 4 * dram.timing.t_burst

    def test_write_row_stats_counted(self):
        dram = DRAMSystem()
        dram.access(0, 0, Category.DATA_WRITE)
        assert dram.stats.writes == 1
        assert dram.stats.row_misses == 1


class TestStats:
    def test_categories_counted(self):
        dram = DRAMSystem()
        dram.access(0, 0, Category.DATA_READ)
        dram.access(1, 0, Category.METADATA_READ)
        dram.access(2, 0, Category.DATA_WRITE)
        assert dram.stats.accesses_by_category[Category.DATA_READ] == 1
        assert dram.stats.accesses_by_category[Category.METADATA_READ] == 1
        assert dram.stats.total_accesses == 3


class TestPhysicalMemory:
    def test_default_zero_fill(self):
        mem = PhysicalMemory(1024)
        assert mem.read(5) == b"\x00" * 64

    def test_write_read(self):
        mem = PhysicalMemory(1024)
        data = bytes(range(64))
        mem.write(5, data)
        assert mem.read(5) == data

    def test_bounds_checked(self):
        mem = PhysicalMemory(16)
        with pytest.raises(IndexError):
            mem.read(16)
        with pytest.raises(IndexError):
            mem.write(-1, b"\x00" * 64)

    def test_size_checked(self):
        mem = PhysicalMemory(16)
        with pytest.raises(ValueError):
            mem.write(0, b"short")

    def test_lazy_initial_content(self):
        calls = []

        def initial(addr):
            calls.append(addr)
            return bytes([addr % 256]) * 64

        mem = PhysicalMemory(1024, initial_content=initial)
        assert mem.read(7) == b"\x07" * 64
        assert mem.read(7) == b"\x07" * 64
        assert calls == [7]  # materialised once

    def test_resident_lines_snapshot(self):
        mem = PhysicalMemory(1024)
        mem.write(3, b"\x01" * 64)
        assert set(mem.resident_lines()) == {3}


class TestDeferredRead:
    """``read_deferred``: a never-written slot's contents, or a store's
    (a ``StoredVersion``), unrendered until a record's ``data`` is read."""

    @staticmethod
    def memory(capacity=1024):
        calls = []

        def initial(addr):
            calls.append(addr)
            return bytes([addr % 256]) * 64

        return PhysicalMemory(capacity, initial_content=initial), calls

    def test_renders_nothing_until_data_is_read(self):
        mem, calls = self.memory()
        ReadResult(7, mem.read_deferred(7), Level.UNCOMPRESSED, 0)
        CacheLine(8, mem.read_deferred(8))
        assert calls == []
        assert mem.resident_lines() == {}

    def test_renders_once_when_data_is_read(self):
        mem, calls = self.memory()
        line = CacheLine(7, mem.read_deferred(7))
        assert line.data == b"\x07" * 64
        assert type(line.data) is bytes
        assert calls == [7]

    def test_bytes_equal_an_eager_read(self):
        mem, _ = self.memory()
        result = ReadResult(9, mem.read_deferred(9), Level.UNCOMPRESSED, 0)
        assert result.data == mem.read(9)

    def test_stored_slot_returns_its_bytes(self):
        mem, calls = self.memory()
        mem.write(3, b"\x01" * 64)
        mem.read(4)
        assert mem.read_deferred(3) == b"\x01" * 64
        assert mem.read_deferred(4) == b"\x04" * 64
        assert calls == [4]
        assert set(mem.resident_lines()) == {3, 4}

    def test_renders_from_the_address_not_the_slot(self):
        mem, _ = self.memory()
        line = CacheLine(5, mem.read_deferred(5))
        mem.write(5, b"\x01" * 64)
        assert line.data == b"\x05" * 64

    def test_store_replaces_it_unrendered(self):
        mem, calls = self.memory()
        line = CacheLine(5, mem.read_deferred(5))
        line.data = b"\x02" * 64
        assert line.data == b"\x02" * 64
        assert calls == []

    def test_zero_fill_without_initial_content(self):
        assert PhysicalMemory(16).read_deferred(3) == b"\x00" * 64

    def test_bounds_checked(self):
        mem, calls = self.memory(capacity=16)
        with pytest.raises(IndexError):
            mem.read_deferred(16)
        with pytest.raises(IndexError):
            mem.read_deferred(-1)
        assert calls == []

    def test_render_checks_line_size(self):
        mem = PhysicalMemory(16, initial_content=lambda addr: b"short")
        line = CacheLine(0, mem.read_deferred(0))
        with pytest.raises(ValueError):
            line.data

    def test_stored_version_written_unrendered(self):
        mem, versions = PhysicalMemory(16), Versions()
        stored = StoredVersion(versions, 5, 2)
        mem.write(3, stored)
        assert mem.read_deferred(3) is stored
        assert len(mem) == 1
        assert versions.calls == []

    def test_read_renders_a_stored_version_once_and_stores_it(self):
        mem, versions = PhysicalMemory(16), Versions()
        stored = StoredVersion(versions, 5, 2)
        mem.write(3, stored)
        line = CacheLine(3, mem.read_deferred(3))
        result = ReadResult(3, mem.read_deferred(3), Level.UNCOMPRESSED, 0)
        assert mem.read(3) == bytes([5, 2]) * 32
        assert type(mem.read_deferred(3)) is bytes
        # every record holding the deferral shares that one render
        assert line.data == result.data == bytes([5, 2]) * 32
        assert type(line.data) is bytes
        assert versions.calls == [(5, 2)]

    def test_stored_version_renders_its_own_version_later(self):
        generator = WorkloadTraceGenerator(get_workload("lbm06"), 0)
        data = generator.data
        render = data.line
        calls = []

        def counted(vline, version=0):
            calls.append((vline, version))
            return render(vline, version)

        data.line = counted
        first = {}
        for record in generator.generate(20_000):
            if record.is_write:
                if record.vline in first:
                    break
                first[record.vline] = record.write_data
        stored = first[record.vline]
        assert calls == []  # a store's record renders nothing
        assert generator._versions[record.vline] == stored.version + 1
        assert stored.render() == render(record.vline, stored.version)
        # rendered through the generator's instance attribute, when asked
        assert calls == [(record.vline, stored.version)]

    def test_short_stored_version_raises(self):
        mem = PhysicalMemory(16)
        mem.write(0, StoredVersion(Versions(size=8), 0, 1))
        with pytest.raises(ValueError, match="expected 64 bytes"):
            mem.read(0)
        with pytest.raises(ValueError, match="expected 64 bytes"):
            CacheLine(0, mem.read_deferred(0)).data

    def test_resident_lines_renders_stored_versions(self):
        mem, versions = PhysicalMemory(16), Versions()
        mem.write(3, StoredVersion(versions, 5, 2))
        mem.write(4, b"\x01" * 64)
        assert mem.resident_lines() == {3: bytes([5, 2]) * 32, 4: b"\x01" * 64}
        assert versions.calls == [(5, 2)]

    def test_stored_version_write_checks_bounds(self):
        mem = PhysicalMemory(16)
        with pytest.raises(IndexError):
            mem.write(16, StoredVersion(Versions(), 0, 1))

@given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=60))
def test_time_monotonic_per_stream(ops):
    """Completions never precede their issue time."""
    dram = DRAMSystem()
    now = 0
    for addr, is_write in ops:
        category = Category.DATA_WRITE if is_write else Category.DATA_READ
        done = dram.access(addr, now, category)
        assert done >= now
        if not is_write:
            now = done


class TestRefresh:
    def test_access_in_refresh_window_delayed(self):
        dram = DRAMSystem()
        t_rfc = dram.timing.t_rfc
        # time 0 falls inside the first refresh window
        completion = dram.access(0, 0, Category.DATA_READ)
        assert completion >= t_rfc
        assert dram.stats.refresh_stalls >= 1

    def test_access_outside_window_unaffected(self):
        with_refresh = DRAMSystem()
        without = DRAMSystem(refresh=False)
        start = with_refresh.timing.t_rfc + 10  # past the refresh window
        a = with_refresh.access(0, start, Category.DATA_READ)
        b = without.access(0, start, Category.DATA_READ)
        assert a == b

    def test_refresh_disabled(self):
        dram = DRAMSystem(refresh=False)
        dram.access(0, 0, Category.DATA_READ)
        assert dram.stats.refresh_stalls == 0


class TestPagePolicy:
    def test_closed_page_never_row_hits(self):
        dram = DRAMSystem(page_policy="closed", refresh=False)
        now = dram.access(0, 0, Category.DATA_READ)
        dram.access(1, now, Category.DATA_READ)
        assert dram.stats.row_hits == 0
        assert dram.stats.row_misses == 2

    def test_closed_page_constant_latency(self):
        dram = DRAMSystem(page_policy="closed", refresh=False)
        timing = dram.timing
        t1 = dram.access(0, 10_000, Category.DATA_READ)
        expected = timing.t_rcd + timing.t_cas + timing.t_burst
        assert t1 - 10_000 == expected

    def test_open_page_beats_closed_on_streams(self):
        open_page = DRAMSystem(page_policy="open", refresh=False)
        closed = DRAMSystem(page_policy="closed", refresh=False)
        t_open = t_closed = 100_000
        for i in range(16):
            t_open = open_page.access(i, t_open, Category.DATA_READ)
            t_closed = closed.access(i, t_closed, Category.DATA_READ)
        assert t_open < t_closed

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            DRAMSystem(page_policy="sideways")

    def test_closed_page_write_stats(self):
        dram = DRAMSystem(page_policy="closed", refresh=False)
        dram.access(0, 0, Category.DATA_WRITE)
        dram.access(0, 0, Category.DATA_WRITE)
        assert dram.stats.row_hits == 0


class TestPrecomputedConstants:
    """``DRAMSystem`` derives its per-access constants once; they must
    equal what the frozen timing and geometry would give per access."""

    @pytest.mark.parametrize(
        "timing, geometry",
        [
            (DDRTiming(), DRAMGeometry()),
            (DDRTiming(cpu_ghz=2.0), DRAMGeometry()),
            (
                DDRTiming(cpu_ghz=4.1, bus_mhz=1200.0, tcas_ns=11.0, trfc_ns=260.0),
                DRAMGeometry(channels=4, banks_per_rank=8, lines_per_row=64,
                             channel_interleave_lines=2),
            ),
        ],
    )
    def test_constants_match_properties(self, timing, geometry):
        dram = DRAMSystem(timing, geometry)
        assert dram._t_cas == timing.t_cas
        assert dram._t_rcd == timing.t_rcd
        assert dram._t_rp == timing.t_rp
        assert dram._t_ras == timing.t_ras
        assert dram._t_burst == timing.t_burst
        assert dram._t_line == max(1, timing.t_burst)
        assert dram._t_refi == timing.t_refi
        assert dram._t_rfc == timing.t_rfc
        assert dram._interleave == geometry.channel_interleave_lines
        assert dram._num_channels == geometry.channels
        assert dram._lines_per_row == geometry.lines_per_row
        assert dram._banks_per_channel == geometry.banks_per_channel

    @given(st.integers(min_value=0, max_value=2**30))
    def test_inline_decode_matches_geometry(self, addr):
        """The access path lands on the bank ``DRAMGeometry.decode`` names."""
        geometry = DRAMGeometry(channels=2, banks_per_rank=4, lines_per_row=16)
        dram = DRAMSystem(geometry=geometry, refresh=False)
        dram.access(addr, 0, Category.DATA_READ)
        decoded = geometry.decode(addr)
        for c, channel in enumerate(dram._channels):
            for b, bank in enumerate(channel.banks):
                touched = bank.open_row != -1
                assert touched == (c == decoded.channel and b == decoded.bank)
        bank = dram._channels[decoded.channel].banks[decoded.bank]
        assert bank.open_row == decoded.row

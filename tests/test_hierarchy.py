"""Tests for the cache hierarchy wired to a memory controller."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.replacement import POLICIES
from repro.core.policy import SamplingPolicy
from repro.core.ptmc import PTMCController
from repro.core.uncompressed import UncompressedController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from tests.lineutils import quad_friendly_line

LINE = b"\x00" * 64

SMALL = HierarchyConfig(
    num_cores=2,
    l1_bytes=1024,
    l2_bytes=4 * 1024,
    l3_bytes=16 * 1024,
)


def make_hierarchy(controller_cls=UncompressedController, policy=None):
    memory = PhysicalMemory(1 << 16)
    dram = DRAMSystem()
    if policy is not None:
        controller = controller_cls(memory, dram, policy=policy)
    else:
        controller = controller_cls(memory, dram)
    return CacheHierarchy(controller, SMALL, policy)


class TestServingLevels:
    def test_miss_then_l1_hit(self):
        h = make_hierarchy()
        first = h.access(0, 5, False, 0)
        assert first.served_by == "mem"
        second = h.access(0, 5, False, 1000)
        assert second.served_by == "l1"

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        h.access(0, 5, False, 0)
        # stream enough lines through the same L1 set to displace addr 5
        sets = h.l1s[0].num_sets
        for i in range(1, 10):
            h.access(0, 5 + i * sets, False, 0)
        outcome = h.access(0, 5, False, 0)
        assert outcome.served_by in ("l2", "l3")

    def test_latencies_ordered(self):
        h = make_hierarchy()
        mem = h.access(0, 5, False, 0).completion
        l1 = h.access(0, 5, False, 0).completion
        assert l1 < mem

    def test_private_l1_per_core(self):
        h = make_hierarchy()
        h.access(0, 5, False, 0)
        outcome = h.access(1, 5, False, 0)
        # core 1 misses its own L1/L2 but hits the shared L3
        assert outcome.served_by == "l3"


class TestWritePath:
    def test_write_requires_data(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.access(0, 5, True, 0)

    def test_write_marks_l3_dirty(self):
        h = make_hierarchy()
        h.access(0, 5, True, 0, write_data=b"\x01" * 64)
        assert h.l3.probe(5).dirty
        assert h.l3.probe(5).data == b"\x01" * 64

    def test_write_through_updates_all_levels(self):
        h = make_hierarchy()
        h.access(0, 5, False, 0)
        h.access(0, 5, True, 0, write_data=b"\x02" * 64)
        assert h.l1s[0].probe(5).data == b"\x02" * 64
        assert h.l2s[0].probe(5).data == b"\x02" * 64
        assert h.l3.probe(5).data == b"\x02" * 64

    def test_dirty_data_written_back_to_memory(self):
        h = make_hierarchy()
        h.access(0, 5, True, 0, write_data=b"\x03" * 64)
        h.flush(0)
        assert h.controller.memory.read(5) == b"\x03" * 64


class TestInclusion:
    def test_l3_eviction_back_invalidates(self):
        h = make_hierarchy()
        h.access(0, 5, False, 0)
        assert h.l1s[0].probe(5) is not None
        # force 5 out of L3 via its view
        h.llc_view.force_evict(5)
        assert h.l1s[0].probe(5) is None
        assert h.l2s[0].probe(5) is None

    def test_capacity_eviction_preserves_inclusion(self):
        h = make_hierarchy()
        sets = h.l3.num_sets
        h.access(0, 5, False, 0)
        for i in range(1, 40):
            h.access(0, 5 + i * sets, False, 0)
        if h.l3.probe(5) is None:
            assert h.l1s[0].probe(5) is None


def _compact_group_through_hierarchy(h, controller, lines):
    """Touch a quad's lines, then push the base line through eviction so
    the controller compacts the group (ganged eviction removes the rest)."""
    for i in range(4):
        h.access(0, 8 + i, True, 0, write_data=lines[i])
    victim = h.llc_view.force_evict(8)
    controller.handle_eviction(victim, 0, 0, h.llc_view)
    assert h.l3.probe(9) is None  # ganged eviction took the partners


class TestSharedRecords:
    """L1 and L2 install the L3's own record, never a copy: after any
    stream of loads, stores, L3 evictions and ganged ``force_evict``s,
    every private entry *is* the L3 record for its address."""

    @staticmethod
    def _assert_shared(h):
        for inner in [*h.l1s, *h.l2s]:
            for line in inner.resident():
                assert h.l3.probe(line.addr) is line

    @pytest.mark.parametrize("controller_cls", [UncompressedController, PTMCController])
    @settings(deadline=None, max_examples=25)
    @given(stream=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1023),  # line address
            st.sampled_from(["load", "store", "store_noise", "force_evict"]),
        ),
        max_size=250,
    ))
    def test_private_entries_are_the_l3_record(self, controller_cls, stream):
        h = make_hierarchy(controller_cls)
        noise = bytes(range(64))
        for cycle, (addr, op) in enumerate(stream):
            if op == "force_evict":
                h.llc_view.force_evict(addr)
            else:
                # pages are core-private, as the VM model allocates them
                core = (addr // 64) % 2
                data = {"load": None, "store": quad_friendly_line(addr),
                        "store_noise": noise}[op]
                h.access(core, addr, data is not None, cycle * 50, write_data=data)
            self._assert_shared(h)

    def test_ganged_eviction_and_stores_keep_one_record(self):
        memory = PhysicalMemory(1 << 16)
        controller = PTMCController(memory, DRAMSystem())
        h = CacheHierarchy(controller, SMALL)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        for addr in range(8, 12):  # the gang left the private levels too
            assert h.l1s[0].probe(addr) is None
            assert h.l2s[0].probe(addr) is None
        h.access(0, 8, False, 10_000)  # 9..11 co-fetched into the L3 only
        h.access(0, 9, True, 20_000, write_data=b"\x05" * 64)
        record = h.l3.probe(9)
        assert h.l1s[0].probe(9) is record and h.l2s[0].probe(9) is record
        assert record.data == b"\x05" * 64 and record.dirty
        self._assert_shared(h)


class TestPrefetchAccounting:
    def test_cofetched_lines_installed_in_l3_only(self):
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        controller = PTMCController(memory, dram)
        h = CacheHierarchy(controller, SMALL)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        # re-read the group base: neighbours install into L3 as prefetched
        outcome = h.access(0, 8, False, 10_000)
        assert outcome.served_by == "mem"
        neighbour = h.l3.probe(9)
        assert neighbour is not None
        assert neighbour.prefetched
        assert h.l1s[0].probe(9) is None

    def test_useful_prefetch_counted_once(self):
        policy = SamplingPolicy(sample_period=1, per_core=False)  # sample all
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        controller = PTMCController(memory, dram, policy=policy)
        h = CacheHierarchy(controller, SMALL, policy)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        h.access(0, 8, False, 10_000)
        before = policy.benefits
        h.access(0, 9, False, 20_000)  # hits the prefetched line
        assert policy.benefits == before + 1
        h.access(0, 9, False, 30_000)  # second hit: no double count
        assert policy.benefits == before + 1
        assert h.useful_prefetches >= 1


class TestPolicyHierarchyProperties:
    """The inclusion and occupancy invariants hold for every registered
    replacement policy, not just the default LRU path."""

    @staticmethod
    def _policy_hierarchy(policy):
        memory = PhysicalMemory(1 << 16)
        cfg = dataclasses.replace(
            SMALL, l1_policy=policy, l2_policy=policy, l3_policy=policy, policy_seed=5
        )
        return CacheHierarchy(UncompressedController(memory, DRAMSystem()), cfg)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(deadline=None, max_examples=15)
    @given(stream=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # core
            st.integers(min_value=0, max_value=511),  # line address
            st.booleans(),  # write?
        ),
        max_size=120,
    ))
    def test_inclusion_and_occupancy_under_random_streams(self, policy, stream):
        h = self._policy_hierarchy(policy)
        for cycle, (core, addr, is_write) in enumerate(stream):
            data = LINE if is_write else None
            h.access(core, addr, is_write, cycle * 10, write_data=data)
        for cache in [h.l3, *h.l1s, *h.l2s]:
            assert cache.occupancy() <= cache.num_sets * cache.ways
        for inner in [*h.l1s, *h.l2s]:
            for line in inner.resident():
                assert h.l3.probe(line.addr) is not None

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_force_evict_back_invalidates_every_policy(self, policy):
        h = self._policy_hierarchy(policy)
        for addr in range(8):
            h.access(addr % 2, addr, False, addr * 10)
        target = next(iter(h.l3.resident())).addr
        h.llc_view.force_evict(target)
        assert h.l3.probe(target) is None
        for inner in [*h.l1s, *h.l2s]:
            assert inner.probe(target) is None
        for line in h.l1s[0].resident():
            assert h.l3.probe(line.addr) is not None

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_rereference_hits_l1_every_policy(self, policy):
        h = self._policy_hierarchy(policy)
        h.access(0, 17, False, 0)
        assert h.access(0, 17, False, 10).served_by == "l1"


class TestWastedPrefetchAccounting:
    def test_unreferenced_prefetch_eviction_counts_as_wasted(self):
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        controller = PTMCController(memory, dram)
        h = CacheHierarchy(controller, SMALL)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        h.access(0, 8, False, 10_000)  # re-read installs 9..11 as prefetched
        assert h.l3.probe(9).prefetched
        assert h.wasted_prefetches == 0
        h.llc_view.force_evict(9)  # evicted before any demand touch
        assert h.wasted_prefetches == 1

    def test_referenced_prefetch_is_not_wasted(self):
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        controller = PTMCController(memory, dram)
        h = CacheHierarchy(controller, SMALL)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        h.access(0, 8, False, 10_000)
        h.access(0, 9, False, 20_000)  # demand hit clears the prefetched bit
        h.llc_view.force_evict(9)
        assert h.wasted_prefetches == 0

"""Tests for the cache hierarchy wired to a memory controller."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheLine
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.replacement import DEFAULT_POLICY, POLICIES, make_policy
from repro.core.policy import SamplingPolicy
from repro.core.ptmc import PTMCController
from repro.core.uncompressed import UncompressedController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from tests.lineutils import quad_friendly_line

LINE = b"\x00" * 64

#: cores of every test hierarchy (``core_of`` spreads pages over them)
CORES = 2

SMALL = HierarchyConfig(
    l1_bytes=1024,
    l2_bytes=4 * 1024,
    l3_bytes=16 * 1024,
)


#: a 32-line L3 (4 sets of 8 ways), half of one core's L2, for the
#: property tests: their streams overflow it, so inclusion is checked
#: across L3 capacity victims
TINY_L3 = dataclasses.replace(SMALL, l3_bytes=2 * 1024, l3_ways=8)


def make_hierarchy(controller_cls=UncompressedController, policy=None, config=SMALL):
    memory = PhysicalMemory(1 << 16)
    dram = DRAMSystem()
    if policy is not None:
        controller = controller_cls(memory, dram, policy=policy)
    else:
        controller = controller_cls(memory, dram)
    return CacheHierarchy(controller, config, CORES, policy)


def core_of(addr):
    """The core owning ``addr``: pages are core-private, as the VM model
    allocates them, which inclusion's back-invalidation relies on."""
    return (addr // 64) % 2


def overflow_l3(h):
    """Load one more distinct line than the L3 holds, so it has given up
    a capacity victim and is full when a test's own stream begins."""
    for addr in range(h.l3.num_sets * h.l3.ways + 1):
        h.access(core_of(addr), addr, False, addr * 10)
    assert h.l3.policy_evictions > 0


class TestServingLevels:
    """``access`` returns the completion cycle: a hit completes its
    level's latency after ``now`` (and counts in that level's hits); a
    memory access completes later than the L3 latency would."""

    def test_miss_then_l1_hit(self):
        h = make_hierarchy()
        first = h.access(0, 5, False, 0)
        assert h.l3.misses == 1
        assert first > SMALL.l3_latency
        second = h.access(0, 5, False, 1000)
        assert h.l1s[0].hits == 1
        assert second == 1000 + SMALL.l1_latency

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        h.access(0, 5, False, 0)
        # stream enough lines through the same L1 set to displace addr 5
        sets = h.l1s[0].num_sets
        for i in range(1, 10):
            h.access(0, 5 + i * sets, False, 0)
        l2_hits, l3_hits = h.l2s[0].hits, h.l3.hits
        completion = h.access(0, 5, False, 0)
        served_by_l2 = h.l2s[0].hits == l2_hits + 1
        served_by_l3 = h.l3.hits == l3_hits + 1
        assert served_by_l2 != served_by_l3  # exactly one level served it
        latency = SMALL.l2_latency if served_by_l2 else SMALL.l3_latency
        assert completion == latency

    def test_latencies_ordered(self):
        h = make_hierarchy()
        mem = h.access(0, 5, False, 0)
        l1 = h.access(0, 5, False, 0)
        assert l1 < mem

    def test_private_l1_per_core(self):
        h = make_hierarchy()
        h.access(0, 5, False, 0)
        completion = h.access(1, 5, False, 0)
        # core 1 misses its own L1/L2 but hits the shared L3
        assert (h.l1s[1].misses, h.l2s[1].misses, h.l3.hits) == (1, 1, 1)
        assert completion == SMALL.l3_latency


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
        h = make_hierarchy(controller_cls, config=TINY_L3)
        overflow_l3(h)
        self._assert_shared(h)
        noise = bytes(range(64))
        for cycle, (addr, op) in enumerate(stream, start=1000):
            if op == "force_evict":
                h.llc_view.force_evict(addr)
            else:
                data = {"load": None, "store": quad_friendly_line(addr),
                        "store_noise": noise}[op]
                h.access(core_of(addr), addr, data is not None, cycle * 50, write_data=data)
            self._assert_shared(h)

    def test_ganged_eviction_and_stores_keep_one_record(self):
        memory = PhysicalMemory(1 << 16)
        controller = PTMCController(memory, DRAMSystem())
        h = CacheHierarchy(controller, SMALL, CORES)
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
        h = CacheHierarchy(controller, SMALL, CORES)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        # re-read the group base: neighbours install into L3 as prefetched
        l3_misses = h.l3.misses
        completion = h.access(0, 8, False, 10_000)
        assert h.l3.misses == l3_misses + 1  # served by memory
        assert completion > 10_000 + SMALL.l3_latency
        neighbour = h.l3.probe(9)
        assert neighbour is not None
        assert neighbour.prefetched
        assert h.l1s[0].probe(9) is None

    def test_useful_prefetch_counted_once(self):
        policy = SamplingPolicy(sample_period=1, per_core=False)  # sample all
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        controller = PTMCController(memory, dram, policy=policy)
        h = CacheHierarchy(controller, SMALL, CORES, policy)
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
    LLC replacement policy, not just the default LRU path."""

    @staticmethod
    def _policy_hierarchy(policy, config=SMALL):
        memory = PhysicalMemory(1 << 16)
        controller = UncompressedController(memory, DRAMSystem())
        return CacheHierarchy(controller, config, CORES, llc_policy=policy)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(deadline=None, max_examples=15)
    @given(stream=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=511),  # line address
            st.booleans(),  # write?
        ),
        max_size=120,
    ))
    def test_inclusion_and_occupancy_under_random_streams(self, policy, stream):
        h = self._policy_hierarchy(policy, TINY_L3)
        overflow_l3(h)
        for cycle, (addr, is_write) in enumerate(stream, start=1000):
            data = LINE if is_write else None
            h.access(core_of(addr), addr, is_write, cycle * 10, write_data=data)
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
        assert h.access(0, 17, False, 10) == 10 + h.config.l1_latency
        assert h.l1s[0].hits == 1


class TestWastedPrefetchAccounting:
    def test_unreferenced_prefetch_eviction_counts_as_wasted(self):
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        controller = PTMCController(memory, dram)
        h = CacheHierarchy(controller, SMALL, CORES)
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
        h = CacheHierarchy(controller, SMALL, CORES)
        lines = [quad_friendly_line(i) for i in range(4)]
        _compact_group_through_hierarchy(h, controller, lines)
        h.access(0, 8, False, 10_000)
        h.access(0, 9, False, 20_000)  # demand hit clears the prefetched bit
        h.llc_view.force_evict(9)
        assert h.wasted_prefetches == 0


# ----------------------------------------------------------------------
# Reference orchestration: ``access`` as a chain of helpers (``_store``,
# ``_install_l3``, ``_left_l3``) and ``flush`` as a rescan from set 0,
# copied here so the one-body ``access`` and the draining ``flush`` are
# held to them bit for bit.  Each runs over a hierarchy of its own.


def _reference_store(h, addr, data):
    line = h.l3.probe(addr)
    if line is None:
        raise RuntimeError("inclusion violated: store target missing from L3")
    line.data = data
    line.dirty = True


def _reference_left_l3(h, line):
    if line.prefetched:
        h.wasted_prefetches += 1
    h.l1s[line.core_id].invalidate(line.addr)
    h.l2s[line.core_id].invalidate(line.addr)


def _reference_install_l3(h, addr, data, now, core_id, fill_level, prefetched=False):
    line = CacheLine(addr, data, False, fill_level, core_id, prefetched)
    victim = h.l3.install(line)
    if victim is not None:
        _reference_left_l3(h, victim)
        h.controller.handle_eviction(victim, now, victim.core_id, h.llc_view)
    return line


def reference_access(h, core_id, addr, is_write, now, write_data=None):
    """One demand access through ``h``; returns its completion cycle."""
    if is_write and write_data is None:
        raise ValueError("writes must carry their new line contents")
    h.demand_accesses += 1
    cfg = h.config
    l1 = h.l1s[core_id]
    if l1.lookup(addr) is not None:
        if is_write:
            _reference_store(h, addr, write_data)
        return now + cfg.l1_latency
    l2 = h.l2s[core_id]
    line = l2.lookup(addr)
    if line is not None:
        l1.install(line)
        if is_write:
            _reference_store(h, addr, write_data)
        return now + cfg.l2_latency
    line = h.l3.lookup(addr)
    if line is not None:
        line.core_id = core_id
        if line.prefetched:
            line.prefetched = False
            h.useful_prefetches += 1
            if h.policy is not None and h.llc_view.is_sampled_set(addr):
                h.policy.on_benefit(line.core_id)
        l2.install(line)
        l1.install(line)
        if is_write:
            _reference_store(h, addr, write_data)
        return now + cfg.l3_latency
    result = h.controller.read_line(addr, now, core_id, h.llc_view)
    for extra_addr, extra_data in result.extra_lines.items():
        if h.l3.probe(extra_addr) is None:
            _reference_install_l3(
                h, extra_addr, extra_data, now, core_id, result.level, prefetched=True
            )
    line = _reference_install_l3(h, addr, result._data, now, core_id, result.level)
    l2.install(line)
    l1.install(line)
    if is_write:
        _reference_store(h, addr, write_data)
    return result.completion + cfg.l3_latency


def reference_flush(h, now):
    """Empty the private levels, then hand the L3's first resident line
    to the controller until none is left."""
    for cache in [*h.l1s, *h.l2s]:
        cache.drain(lambda line: None)
    while True:
        victim = next(h.l3.resident(), None)
        if victim is None:
            break
        evicted = h.l3.evict(victim.addr)
        h.controller.handle_eviction(evicted, now, evicted.core_id, h.llc_view)


def _hierarchy_state(h):
    """Everything a simulation can observe of ``h``, for an equality test."""
    caches = []
    for cache in [h.l3, *h.l1s, *h.l2s]:
        sets = [
            [(a, l.dirty, l.fill_level, l.core_id, l.prefetched, l.data)
             for a, l in cache_set.items()]
            for cache_set in cache._sets
        ]
        caches.append(
            (cache.name, cache.hits, cache.misses, cache.policy_evictions,
             cache.prefetch_victims, sets)
        )
    controller = h.controller
    benefits = None if h.policy is None else (h.policy.benefits, h.policy.costs)
    return {
        "caches": caches,
        "prefetches": (h.useful_prefetches, h.wasted_prefetches, h.demand_accesses),
        "benefits": benefits,
        "dram": controller.dram.stats,
        "memory": controller.memory.resident_lines(),
    }


def _twin_hierarchies(controller_name, cfg, llc_policy=DEFAULT_POLICY):
    """Two hierarchies built alike, each over its own memory and DRAM."""
    twins = []
    for _ in range(2):
        memory = PhysicalMemory(1 << 16)
        dram = DRAMSystem()
        if controller_name == "ptmc":
            policy = SamplingPolicy(sample_period=2, num_cores=CORES)
            controller = PTMCController(memory, dram, policy=policy)
        else:
            policy = None
            controller = UncompressedController(memory, dram)
        twins.append(CacheHierarchy(controller, cfg, CORES, policy, llc_policy=llc_policy))
    return twins


def _private_policy(h, level, policy):
    """Give each (empty) cache of ``h``'s private ``level``, ``"l1"`` or
    ``"l2"``, another replacement policy.  A simulated system's private
    levels run LRU, but a ``Cache`` takes any policy, and ``access`` must
    not depend on which one a level runs."""
    for cache in getattr(h, f"{level}s"):
        replacement = make_policy(policy, cache_name=cache.name)
        replacement.bind(cache.num_sets, cache.ways)
        cache.policy = replacement


#: a 64-line L3 over 512 lines of traffic, so L3 victims, packed groups,
#: co-fetches and their later hits or evictions are common
_REF_CFG = dataclasses.replace(SMALL, l2_bytes=2 * 1024, l3_bytes=4 * 1024)

#: one non-LRU policy at one level (LRU elsewhere), or one policy at all three
_LEVEL_POLICIES = [
    (level, policy)
    for policy in sorted(POLICIES)
    for level in ("l1", "l2", "l3", "all")
    if policy != "lru" or level == "all"
]


def _stream(rng, length):
    """``(addr, op)`` pairs: sequential runs (whole compression groups, so
    PTMC packs, co-fetches and gangs), a hot range and scattered lines,
    with loads, stores of compressible or noisy data and forced
    evictions."""
    addr = 0
    for _ in range(length):
        draw = rng.random()
        if draw < 0.45:
            addr = (addr + 1) % 512
        elif draw < 0.7:
            addr = rng.randrange(48)
        else:
            addr = rng.randrange(512)
        op = rng.choices(["load", "store", "store_noise", "force_evict"], [6, 4, 1, 1])[0]
        yield addr, op


class TestAccessMatchesReference:
    """``access`` is bit for bit the reference orchestration: the same
    completion cycles, cache statistics, per-set key order, line records,
    prefetch accounting, DRAM statistics and memory contents, for every
    replacement policy at every level (the L3's through ``llc_policy``, a
    private level's set on its caches by ``_private_policy``), under a
    controller that never co-fetches and one that does."""

    @pytest.mark.parametrize("controller_name", ["uncompressed", "ptmc"])
    @pytest.mark.parametrize("level,policy", _LEVEL_POLICIES)
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), length=st.integers(1, 400))
    def test_access_matches_reference(self, controller_name, level, policy, seed, length):
        levels = ("l1", "l2", "l3") if level == "all" else (level,)
        llc_policy = policy if "l3" in levels else DEFAULT_POLICY
        h, ref = _twin_hierarchies(controller_name, _REF_CFG, llc_policy)
        for private in levels:
            if private != "l3":
                _private_policy(h, private, policy)
                _private_policy(ref, private, policy)
        noise = bytes(range(64))
        for cycle, (addr, op) in enumerate(_stream(random.Random(seed), length)):
            if op == "force_evict":
                h.llc_view.force_evict(addr)
                ref.llc_view.force_evict(addr)
                continue
            core = (addr // 64) % 2  # pages are core-private
            data = {"load": None, "store": quad_friendly_line(addr),
                    "store_noise": noise}[op]
            now = cycle * 40
            completion = h.access(core, addr, data is not None, now, data)
            assert completion == reference_access(
                ref, core, addr, data is not None, now, data
            )
        assert _hierarchy_state(h) == _hierarchy_state(ref)


class TestFlush:
    @staticmethod
    def _filled_twins():
        """Two PTMC hierarchies holding compressible dirty groups, some
        compacted and re-read (so flushing them gangs partners out)."""
        twins = _twin_hierarchies("ptmc", SMALL)
        for h in twins:
            for addr in range(512):
                core = (addr // 64) % 2
                h.access(core, addr, True, addr * 20, quad_friendly_line(addr))
            for addr in range(0, 96, 4):  # re-read evicted, packed groups
                h.access((addr // 64) % 2, addr, False, 20_000 + addr * 20)
        return twins

    @staticmethod
    def _record_victims(h):
        """Log each victim handed to the controller with the lines its
        eviction gangs out of the L3 (the ``force_evict`` calls that find
        the line)."""
        seen = []
        handle = h.controller.handle_eviction
        force_evict = h.llc_view.force_evict
        ganged = []

        def recording_force_evict(addr):
            line = force_evict(addr)
            if line is not None:
                ganged.append(addr)
            return line

        def recorded(victim, now, core_id, llc):
            ganged.clear()
            handle(victim, now, core_id, llc)
            seen.append((victim.addr, victim.dirty, victim.core_id, tuple(ganged)))

        h.llc_view.force_evict = recording_force_evict
        h.controller.handle_eviction = recorded
        return seen

    def test_flush_matches_rescan_order(self):
        h, ref = self._filled_twins()
        assert _hierarchy_state(h) == _hierarchy_state(ref)
        seen, ref_seen = self._record_victims(h), self._record_victims(ref)
        h.flush(50_000)
        reference_flush(ref, 50_000)
        assert seen == ref_seen
        assert any(ganged for *_, ganged in seen)  # the flush ganged partners
        assert h.l3.occupancy() == 0
        assert _hierarchy_state(h) == _hierarchy_state(ref)

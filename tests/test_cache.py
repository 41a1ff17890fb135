"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheLine
from repro.types import Level

LINE = b"\x00" * 64


def small_cache(ways=2, sets=4):
    return Cache(size_bytes=ways * sets * 64, ways=ways)


class TestGeometry:
    def test_sets_computed(self):
        cache = Cache(8 * 1024, 8)
        assert cache.num_sets == 16

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cache(100, 3)

    def test_set_index_wraps(self):
        cache = small_cache()
        assert cache.set_index(0) == cache.set_index(4)


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(1) is None
        cache.fill(1, LINE)
        assert cache.lookup(1) is not None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_probe_no_stats(self):
        cache = small_cache()
        cache.probe(1)
        assert cache.misses == 0

    def test_fill_existing_updates_in_place(self):
        cache = small_cache()
        cache.fill(1, LINE)
        victim = cache.fill(1, b"\x01" * 64, dirty=True)
        assert victim is None
        line = cache.probe(1)
        assert line.data == b"\x01" * 64
        assert line.dirty

    def test_lru_eviction_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        cache.lookup(0)  # 0 becomes MRU
        victim = cache.fill(2, LINE)
        assert victim.addr == 1

    def test_victim_carries_metadata(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, LINE, dirty=True, fill_level=Level.QUAD, core_id=3)
        victim = cache.fill(1, LINE)
        assert victim.addr == 0
        assert victim.dirty
        assert victim.fill_level is Level.QUAD
        assert victim.core_id == 3

    def test_prefetched_flag(self):
        cache = small_cache()
        cache.fill(0, LINE, prefetched=True)
        assert cache.probe(0).prefetched

    def test_install_holds_the_record_itself(self):
        cache = small_cache(ways=1, sets=1)
        first, second = CacheLine(0, LINE, dirty=True), CacheLine(1, LINE)
        assert cache.install(first) is None
        assert cache.probe(0) is first
        assert cache.install(second) is first  # the victim, handed back as is
        assert cache.probe(1) is second
        assert cache.policy_evictions == 1

    def test_install_rejects_a_resident_address(self):
        cache = small_cache()
        cache.fill(3, LINE)
        with pytest.raises(ValueError):
            cache.install(CacheLine(3, LINE))
        assert cache.occupancy() == 1


class TestEvictInvalidate:
    def test_evict_returns_line(self):
        cache = small_cache()
        cache.fill(5, LINE, dirty=True)
        evicted = cache.evict(5)
        assert evicted.addr == 5
        assert cache.probe(5) is None

    def test_evict_absent(self):
        assert small_cache().evict(5) is None

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(5, LINE)
        assert cache.invalidate(5)
        assert not cache.invalidate(5)


class TestStatsAndIteration:
    def test_occupancy(self):
        cache = small_cache()
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        assert cache.occupancy() == 2

    def test_resident_iteration(self):
        cache = small_cache()
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        assert {line.addr for line in cache.resident()} == {0, 1}

    def test_hit_rate(self):
        cache = small_cache()
        cache.lookup(0)
        cache.fill(0, LINE)
        cache.lookup(0)
        assert cache.hit_rate == 0.5

    def test_reset_stats(self):
        cache = small_cache()
        cache.lookup(0)
        cache.reset_stats()
        assert cache.hit_rate == 0.0
        assert cache.misses == 0

    def test_drain(self):
        cache = small_cache()
        cache.fill(0, LINE, dirty=True)
        cache.fill(1, LINE)
        drained = []
        cache.drain(drained.append)
        assert {e.addr for e in drained} == {0, 1}
        assert cache.occupancy() == 0


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
def test_occupancy_never_exceeds_capacity(addresses):
    cache = small_cache(ways=2, sets=4)
    for addr in addresses:
        cache.fill(addr, LINE)
    assert cache.occupancy() <= 8
    for s in range(cache.num_sets):
        resident = [line for line in cache.resident() if cache.set_index(line.addr) == s]
        assert len(resident) <= 2


class TestPolicySeam:
    """The policy object is the only authority over victim choice."""

    def test_default_cache_uses_lru(self):
        assert type(small_cache().policy).name == "lru"

    def test_policy_string_resolved_per_cache(self):
        a = Cache(1024, 2, name="l3", policy="random")
        b = Cache(1024, 2, name="l3", policy="random")
        assert a.policy is not b.policy  # own RNG per cache instance

    def test_drain_notifies_policy(self):
        cache = Cache(1024, 2, policy="srrip")
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        drained = []
        cache.drain(drained.append)
        assert len(drained) == 2
        assert cache.occupancy() == 0
        # the policy's side-state was released with the lines: refilling
        # behaves exactly like a cold cache
        cache.fill(0, LINE)
        assert cache.fill(cache.num_sets, LINE) is None  # same set, 2 ways

    @given(
        addresses=st.lists(st.integers(min_value=0, max_value=63), max_size=200),
        policy=st.sampled_from(["lru", "fifo", "random", "srrip", "pref_lru"]),
    )
    def test_occupancy_bounded_for_every_policy(self, addresses, policy):
        cache = Cache(2 * 4 * 64, ways=2, policy=policy, name="prop")
        for addr in addresses:
            cache.fill(addr, LINE)
        assert cache.occupancy() <= 8

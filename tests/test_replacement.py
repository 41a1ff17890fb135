"""Unit and property tests for the pluggable replacement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheLine
from repro.cache.replacement import (
    DEFAULT_POLICY,
    POLICIES,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_policy,
)

LINE = b"\x00" * 64
ALL_POLICIES = sorted(POLICIES)


def small_cache(policy, ways=2, sets=4, name="cache"):
    return Cache(size_bytes=ways * sets * 64, ways=ways, name=name, policy=policy)


class TestRegistry:
    def test_default_is_lru(self):
        assert DEFAULT_POLICY == "lru"
        assert type(Cache(1024, 2).policy).name == "lru"

    def test_make_policy_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("belady")

    def test_every_registered_name_instantiates(self):
        for name in ALL_POLICIES:
            assert make_policy(name).name == name

    def test_policy_instance_accepted_directly(self):
        policy = SRRIPPolicy(bits=3)
        cache = Cache(1024, 2, policy=policy)
        assert cache.policy is policy

    def test_srrip_needs_a_bit(self):
        with pytest.raises(ValueError):
            SRRIPPolicy(bits=0)


class TestLRU:
    def test_hit_promotes(self):
        cache = small_cache("lru", ways=2, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        cache.lookup(0)
        assert cache.fill(2, LINE).addr == 1

    def test_untouched_lookup_does_not_promote(self):
        cache = small_cache("lru", ways=2, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        cache.lookup(0, touch=False)
        assert cache.fill(2, LINE).addr == 0


class TestFIFO:
    def test_hits_never_promote(self):
        cache = small_cache("fifo", ways=2, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        cache.lookup(0)  # FIFO ignores recency
        assert cache.fill(2, LINE).addr == 0

    def test_insertion_order_victims(self):
        cache = small_cache("fifo", ways=3, sets=1)
        for addr in (0, 1, 2):
            cache.fill(addr, LINE)
        assert cache.fill(3, LINE).addr == 0
        assert cache.fill(4, LINE).addr == 1


class TestRandom:
    def test_victim_is_resident(self):
        cache = small_cache("random", ways=2, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        assert cache.fill(2, LINE).addr in (0, 1)

    def test_same_seed_same_stream(self):
        a = RandomPolicy(cache_name="l3", seed=7)
        b = RandomPolicy(cache_name="l3", seed=7)
        draws_a = [a._rng.random() for _ in range(20)]
        draws_b = [b._rng.random() for _ in range(20)]
        assert draws_a == draws_b

    def test_distinct_cache_names_distinct_streams(self):
        a = RandomPolicy(cache_name="l3", seed=7)
        b = RandomPolicy(cache_name="l2_0", seed=7)
        assert [a._rng.random() for _ in range(8)] != [b._rng.random() for _ in range(8)]

    def test_whole_cache_replay_is_deterministic(self):
        def run():
            cache = small_cache("random", ways=2, sets=2, name="l3")
            victims = []
            for addr in range(40):
                victim = cache.fill(addr, LINE)
                victims.append(victim.addr if victim else None)
            return victims

        assert run() == run()


class TestSRRIP:
    def test_fills_age_out_before_rereferenced_lines(self):
        cache = small_cache("srrip", ways=2, sets=1)
        cache.fill(0, LINE)
        cache.lookup(0)  # rrpv -> 0: near-immediate re-reference predicted
        cache.fill(1, LINE)  # rrpv 2
        victim = cache.fill(2, LINE)
        assert victim.addr == 1  # the never-hit line ages to distant first

    def test_scan_does_not_flush_working_set(self):
        cache = small_cache("srrip", ways=4, sets=1)
        for addr in (0, 1):
            cache.fill(addr, LINE)
            cache.lookup(addr)
        # a streaming burst through the set: under LRU the third scan
        # fill would already have evicted the working set, but the
        # scan lines age to distant first under SRRIP
        for addr in range(100, 106):
            cache.fill(addr, LINE)
        survivors = {line.addr for line in cache.resident()}
        assert {0, 1} <= survivors

    def test_victim_always_resident(self):
        cache = small_cache("srrip", ways=2, sets=2)
        for addr in range(50):
            victim = cache.fill(addr, LINE)
            if victim is not None:
                assert victim.addr != addr
        assert cache.occupancy() == 4


class TestPrefetchAwareLRU:
    def test_unreferenced_prefetch_sacrificed_first(self):
        cache = small_cache("pref_lru", ways=3, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE, prefetched=True)
        cache.fill(2, LINE)
        victim = cache.fill(3, LINE)
        assert victim.addr == 1
        assert victim.prefetched

    def test_referenced_prefetch_protected(self):
        cache = small_cache("pref_lru", ways=2, sets=1)
        cache.fill(0, LINE, prefetched=True)
        cache.fill(1, LINE)
        # demand reference clears the bit (as the hierarchy does) and
        # promotes the line, so plain LRU applies: 1 is least recent
        cache.lookup(0).prefetched = False
        assert cache.fill(2, LINE).addr == 1

    def test_falls_back_to_lru_without_prefetches(self):
        cache = small_cache("pref_lru", ways=2, sets=1)
        cache.fill(0, LINE)
        cache.fill(1, LINE)
        cache.lookup(0)
        assert cache.fill(2, LINE).addr == 1


class TestEvictionTelemetry:
    def test_policy_evictions_counted(self):
        cache = small_cache("lru", ways=2, sets=1)
        for addr in range(5):
            cache.fill(addr, LINE)
        assert cache.policy_evictions == 3

    def test_prefetch_victims_counted(self):
        cache = small_cache("lru", ways=1, sets=1)
        cache.fill(0, LINE, prefetched=True)
        cache.fill(1, LINE)  # victimises the unreferenced prefetch
        cache.fill(2, LINE)  # victimises a demand line
        assert cache.prefetch_victims == 1
        assert cache.policy_evictions == 2

    def test_evicted_line_carries_prefetched_bit(self):
        cache = small_cache("fifo", ways=1, sets=1)
        cache.fill(0, LINE, prefetched=True)
        assert cache.fill(1, LINE).prefetched
        assert not cache.fill(2, LINE).prefetched

    def test_forced_evict_carries_prefetched_bit(self):
        cache = small_cache("lru")
        cache.fill(5, LINE, prefetched=True)
        assert cache.evict(5).prefetched

    def test_reset_clears_policy_counters(self):
        cache = small_cache("lru", ways=1, sets=1)
        cache.fill(0, LINE, prefetched=True)
        cache.fill(1, LINE)
        cache.reset_stats()
        assert cache.policy_evictions == 0
        assert cache.prefetch_victims == 0


# -- cross-policy properties -------------------------------------------------

access_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # address
        st.booleans(),  # fill (True) vs lookup (False)
        st.booleans(),  # prefetched hint on fills
    ),
    max_size=300,
)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@settings(deadline=None, max_examples=40)
@given(stream=access_streams)
def test_occupancy_and_victims_invariant(policy, stream):
    """Under arbitrary access streams, every policy keeps each set within
    its way budget, evicts only resident lines, and keeps hit/miss
    accounting consistent with residency."""
    cache = Cache(2 * 4 * 64, ways=2, policy=policy, name="prop")
    expected_hits = expected_misses = 0
    for addr, is_fill, prefetched in stream:
        resident_before = cache.probe(addr) is not None
        if is_fill:
            victim = cache.fill(addr, LINE, prefetched=prefetched)
            if victim is not None:
                assert not resident_before or victim.addr != addr
                assert cache.probe(victim.addr) is None
        else:
            line = cache.lookup(addr)
            assert (line is not None) == resident_before
            if resident_before:
                expected_hits += 1
            else:
                expected_misses += 1
    assert cache.hits == expected_hits
    assert cache.misses == expected_misses
    assert cache.occupancy() <= 2 * 4
    for s in range(cache.num_sets):
        in_set = [ln for ln in cache.resident() if cache.set_index(ln.addr) == s]
        assert len(in_set) <= 2


class DispatchedLRU(LRUPolicy):
    """LRU whose hit hook the cache must dispatch (it is overridden), so
    every hit runs ``LRUPolicy.on_hit`` itself rather than the cache's
    inline copy of it."""

    def on_hit(self, set_index, cache_set, addr):
        LRUPolicy.on_hit(self, set_index, cache_set, addr)


@settings(deadline=None, max_examples=40)
@given(stream=access_streams)
def test_inline_lru_hit_matches_lru_policy_on_hit(stream):
    """The cache applies a plain LRU policy's hit rule inline; it must
    keep every set in the same order as dispatching ``LRUPolicy.on_hit``,
    so the two copies of the rule cannot drift apart."""
    inline = small_cache(LRUPolicy())
    dispatched = small_cache(DispatchedLRU())
    assert inline._lru_hits and not dispatched._lru_hits
    for addr, is_fill, _ in stream:
        if is_fill:
            a, b = inline.fill(addr, LINE), dispatched.fill(addr, LINE)
            assert (a and a.addr) == (b and b.addr)
        else:
            assert (inline.lookup(addr) is None) == (dispatched.lookup(addr) is None)
        assert [ln.addr for ln in inline.resident()] == [
            ln.addr for ln in dispatched.resident()
        ]


class VictimDispatchedLRU(LRUPolicy):
    """LRU whose victim choice the cache must dispatch (it is overridden),
    so every full-set fill runs ``LRUPolicy.select_victim`` itself rather
    than the cache's inline copy of it."""

    def select_victim(self, set_index, cache_set):
        return LRUPolicy.select_victim(self, set_index, cache_set)


@settings(deadline=None, max_examples=40)
@given(stream=access_streams)
def test_inline_lru_victim_matches_lru_policy_select_victim(stream):
    """The cache applies a plain LRU policy's victim choice inline; it must
    displace the same line as dispatching ``LRUPolicy.select_victim``."""
    inline = small_cache(LRUPolicy())
    dispatched = small_cache(VictimDispatchedLRU())
    assert inline._lru_victims and not dispatched._lru_victims
    for addr, is_fill, prefetched in stream:
        if is_fill:
            a = inline.fill(addr, LINE, prefetched=prefetched)
            b = dispatched.fill(addr, LINE, prefetched=prefetched)
            assert (a and a.addr) == (b and b.addr)
        else:
            assert (inline.lookup(addr) is None) == (dispatched.lookup(addr) is None)
        assert [ln.addr for ln in inline.resident()] == [
            ln.addr for ln in dispatched.resident()
        ]
    assert inline.policy_evictions == dispatched.policy_evictions
    assert inline.prefetch_victims == dispatched.prefetch_victims


class TestHookDispatch:
    """The cache skips hooks a policy leaves at the base no-op; a policy
    that overrides them must still see every call."""

    class Recording(SRRIPPolicy):
        def __init__(self):
            super().__init__()
            self.calls = []

        def on_hit(self, set_index, cache_set, addr):
            self.calls.append(("hit", addr))
            super().on_hit(set_index, cache_set, addr)

        def on_fill(self, set_index, cache_set, addr):
            self.calls.append(("fill", addr))
            super().on_fill(set_index, cache_set, addr)

        def on_evict(self, set_index, addr):
            self.calls.append(("evict", addr))
            super().on_evict(set_index, addr)

        def select_victim(self, set_index, cache_set):
            victim = super().select_victim(set_index, cache_set)
            self.calls.append(("victim", victim))
            return victim

    class LRUWithHooks(LRUPolicy):
        def __init__(self):
            self.calls = []

        def on_fill(self, set_index, cache_set, addr):
            self.calls.append(("fill", addr))

        def on_evict(self, set_index, addr):
            self.calls.append(("evict", addr))

    def _drive(self, cache):
        cache.fill(0, LINE)       # fill
        cache.fill(4, LINE)       # fill (same set, 2 ways)
        cache.lookup(0)           # hit
        cache.fill(0, LINE)       # in-place refill counts as a hit
        cache.fill(8, LINE)       # fill + victim evict
        cache.evict(8)            # forced evict
        cache.invalidate(0)       # invalidate -> evict hook
        cache.invalidate(12)      # absent: no hook
        cache.fill(1, LINE)       # fill (another set)
        cache.drain(lambda line: None)  # evict hook for line 1

    def test_overriding_subclass_receives_every_call(self):
        policy = self.Recording()
        cache = small_cache(policy)
        self._drive(cache)
        kinds = [kind for kind, _ in policy.calls]
        assert kinds.count("fill") == 4
        assert kinds.count("hit") == 2
        assert kinds.count("evict") == 4  # victim, evict, invalidate, drain
        assert kinds.count("victim") == 1  # the one fill into a full set

    def test_lru_subclass_hooks_fire_and_lru_order_kept(self):
        policy = self.LRUWithHooks()
        cache = small_cache(policy)
        self._drive(cache)
        assert [kind for kind, _ in policy.calls].count("fill") == 4
        assert [kind for kind, _ in policy.calls].count("evict") == 4
        # the inherited LRU hit hook still promotes: 4 is the LRU victim
        assert ("evict", 4) in policy.calls

    def test_instance_level_override_is_honoured(self):
        calls = []
        policy = make_policy("lru")
        policy.on_fill = lambda set_index, cache_set, addr: calls.append(addr)
        cache = small_cache(policy)
        cache.fill(3, LINE)
        assert calls == [3]

    def test_lru_subclass_overriding_select_victim_receives_every_call(self):
        class Sparing(LRUPolicy):
            """Spares the set's LRU line: victimises the next one."""

            def __init__(self):
                self.calls = 0

            def select_victim(self, set_index, cache_set):
                self.calls += 1
                return list(cache_set)[1]

        policy = Sparing()
        cache = small_cache(policy)
        cache.fill(0, LINE)
        cache.fill(4, LINE)
        assert cache.fill(8, LINE).addr == 4
        assert cache.install(CacheLine(12, LINE)).addr == 8
        assert policy.calls == 2
        assert cache.probe(0) is not None

    def test_instance_level_select_victim_override_is_honoured(self):
        policy = make_policy("lru")
        policy.select_victim = lambda set_index, cache_set: list(cache_set)[-1]
        cache = small_cache(policy)
        cache.fill(0, LINE)
        cache.fill(4, LINE)
        assert cache.fill(8, LINE).addr == 4

    def test_reassigned_policy_recomputes_dispatch(self):
        cache = small_cache("lru")
        policy = self.Recording()
        policy.bind(cache.num_sets, cache.ways)
        cache.policy = policy
        cache.fill(1, LINE)
        assert policy.calls == [("fill", 1)]

"""The dict-backed tag store against a frozen ``OrderedDict`` copy of it.

``Cache`` keeps each set in a plain ``dict``: an LRU touch pops the line
and reinserts it, and the LRU victim and ``drain``'s next line are the
set's first key.  ``OrderedCache`` below is the cache as it was before,
each set an ``OrderedDict`` touched with ``move_to_end`` and emptied
with ``popitem(last=False)``, with the same hook dispatch.  Both are
driven with the same streams under every registered policy and under
one that overrides every hook (its hit rule is ``LRUPolicy.on_hit`` on
the dict side and ``move_to_end`` on the reference side); after every
operation they must return
the same lines and victims, hold every set in the same key order, count
the same hits, misses, policy evictions and prefetch victims, and make
the same policy calls.  A drain must hand over the same lines in the
same order.
"""

from collections import OrderedDict
from typing import Callable, Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheLine
from repro.cache.replacement import POLICIES, LRUPolicy, ReplacementPolicy, make_policy
from repro.types import Level

WAYS, SETS = 4, 2
LEVELS = list(Level)
#: three times the cache's lines, so sets fill, evict and hit alike
ADDRESSES = 3 * WAYS * SETS


def _inherits(policy, hook, cls):
    overridden_here = hook in getattr(policy, "__dict__", ())
    return not overridden_here and getattr(type(policy), hook) is getattr(cls, hook)


class OrderedCache:
    """``Cache``'s set operations over ``OrderedDict`` sets, frozen as
    they were before the sets became plain dicts."""

    def __init__(self, size_bytes, ways, line_size=64, name="cache", policy="lru"):
        if size_bytes % (ways * line_size) != 0:
            raise ValueError("cache size must be a multiple of ways * line size")
        self.name = name
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        if isinstance(policy, str):
            policy = make_policy(policy, cache_name=name)
        self.policy = policy
        policy.bind(self.num_sets, ways)
        self.hits = 0
        self.misses = 0
        self.policy_evictions = 0
        self.prefetch_victims = 0

    @property
    def policy(self) -> ReplacementPolicy:
        return self._policy

    @policy.setter
    def policy(self, policy: ReplacementPolicy) -> None:
        self._policy = policy
        self._lru_hits = _inherits(policy, "on_hit", LRUPolicy)
        self._lru_victims = _inherits(policy, "select_victim", LRUPolicy)
        self._hit_hook = not self._lru_hits and not _inherits(
            policy, "on_hit", ReplacementPolicy
        )
        self._fill_hook = not _inherits(policy, "on_fill", ReplacementPolicy)
        self._evict_hook = not _inherits(policy, "on_evict", ReplacementPolicy)

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        set_index = addr % self.num_sets
        cache_set = self._sets[set_index]
        line = cache_set.get(addr)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            if self._lru_hits:
                cache_set.move_to_end(addr)
            elif self._hit_hook:
                self._policy.on_hit(set_index, cache_set, addr)
        return line

    def fill(self, addr, data, dirty=False, fill_level=Level.UNCOMPRESSED, core_id=0,
             prefetched=False) -> Optional[CacheLine]:
        set_index = addr % self.num_sets
        cache_set = self._sets[set_index]
        existing = cache_set.get(addr)
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            if self._lru_hits:
                cache_set.move_to_end(addr)
            elif self._hit_hook:
                self._policy.on_hit(set_index, cache_set, addr)
            return None
        return self.install(CacheLine(addr, data, dirty, fill_level, core_id, prefetched))

    def install(self, line: CacheLine) -> Optional[CacheLine]:
        addr = line.addr
        set_index = addr % self.num_sets
        cache_set = self._sets[set_index]
        if addr in cache_set:
            raise ValueError(f"{self.name}: line {addr:#x} is already resident")
        victim = None
        if len(cache_set) >= self.ways:
            if self._lru_victims:
                victim = cache_set.popitem(last=False)[1]
            else:
                victim = cache_set.pop(self._policy.select_victim(set_index, cache_set))
            if self._evict_hook:
                self._policy.on_evict(set_index, victim.addr)
            self.policy_evictions += 1
            if victim.prefetched:
                self.prefetch_victims += 1
        cache_set[addr] = line
        if self._fill_hook:
            self._policy.on_fill(set_index, cache_set, addr)
        return victim

    def evict(self, addr: int) -> Optional[CacheLine]:
        set_index = addr % self.num_sets
        line = self._sets[set_index].pop(addr, None)
        if line is not None and self._evict_hook:
            self._policy.on_evict(set_index, addr)
        return line

    def invalidate(self, addr: int) -> bool:
        set_index = addr % self.num_sets
        present = self._sets[set_index].pop(addr, None) is not None
        if present and self._evict_hook:
            self._policy.on_evict(set_index, addr)
        return present

    def resident(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def drain(self, sink: Callable[[CacheLine], None]) -> None:
        for set_index, cache_set in enumerate(self._sets):
            while cache_set:
                addr, line = cache_set.popitem(last=False)
                if self._evict_hook:
                    self._policy.on_evict(set_index, addr)
                sink(line)


class EveryHook(LRUPolicy):
    """LRU that overrides every hook and ``select_victim``, so the cache
    dispatches each call; it records each call with the set's key order
    at that moment."""

    name = "every_hook"

    def __init__(self):
        self.calls = []

    def on_hit(self, set_index, cache_set, addr):
        self.calls.append(("hit", set_index, addr, tuple(cache_set)))
        super().on_hit(set_index, cache_set, addr)

    def on_fill(self, set_index, cache_set, addr):
        self.calls.append(("fill", set_index, addr, tuple(cache_set)))

    def on_evict(self, set_index, addr):
        self.calls.append(("evict", set_index, addr))

    def select_victim(self, set_index, cache_set):
        victim = super().select_victim(set_index, cache_set)
        self.calls.append(("victim", set_index, victim, tuple(cache_set)))
        return victim


class OrderedEveryHook(EveryHook):
    """``EveryHook`` with LRU's hit rule as it was, ``move_to_end``, for
    ``OrderedCache``: the dispatched ``LRUPolicy.on_hit`` is held to it."""

    def on_hit(self, set_index, cache_set, addr):
        self.calls.append(("hit", set_index, addr, tuple(cache_set)))
        cache_set.move_to_end(addr)


def _policy(name, ordered=False):
    if name == EveryHook.name:
        return OrderedEveryHook() if ordered else EveryHook()
    return make_policy(name, cache_name="ref")


def _line(line):
    """What a caller can observe of a returned line."""
    if line is None:
        return None
    return (line.addr, line.data, line.dirty, line.fill_level, line.core_id, line.prefetched)


def _state(cache):
    return (
        [list(cache_set) for cache_set in cache._sets],
        [_line(line) for line in cache.resident()],
        (cache.hits, cache.misses, cache.policy_evictions, cache.prefetch_victims),
    )


#: operation kinds, weighted so that sets fill up between the rarer
#: removals and drains
KINDS = ["lookup"] * 8 + ["fill"] * 10 + ["install"] * 4 + ["evict", "invalidate", "drain"]
operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=ADDRESSES - 1),
        st.booleans(),  # lookup: touch; fill: dirty
        st.booleans(),  # fill and install: prefetched
    ),
    min_size=40,
    max_size=250,
)


def _apply(cache, op, step):
    """Run one operation; returns what the caller sees (a drain: the
    drained lines, in order)."""
    kind, addr, flag, prefetched = op
    data = step.to_bytes(2, "little") * 32
    if kind == "lookup":
        return _line(cache.lookup(addr, touch=flag))
    if kind == "fill":
        level = LEVELS[step % len(LEVELS)]
        return _line(cache.fill(addr, data, flag, level, step % 2, prefetched))
    if kind == "install":
        line = CacheLine(addr, data, False, Level.UNCOMPRESSED, 1, prefetched)
        try:
            return _line(cache.install(line))
        except ValueError as error:
            return str(error)
    if kind == "evict":
        return _line(cache.evict(addr))
    if kind == "invalidate":
        return cache.invalidate(addr)
    drained = []
    cache.drain(lambda line: drained.append(_line(line)))
    return drained


@pytest.mark.parametrize("policy", sorted(POLICIES) + [EveryHook.name])
@settings(deadline=None, max_examples=60)
@given(stream=operations)
def test_dict_sets_match_ordered_dict_sets(policy, stream):
    size = WAYS * SETS * 64
    cache = Cache(size, WAYS, name="ref", policy=_policy(policy))
    reference = OrderedCache(size, WAYS, name="ref", policy=_policy(policy, ordered=True))
    assert (cache._lru_hits, cache._lru_victims, cache._hit_hook, cache._fill_hook,
            cache._evict_hook) == (reference._lru_hits, reference._lru_victims,
                                   reference._hit_hook, reference._fill_hook,
                                   reference._evict_hook)
    for step, op in enumerate(stream):
        assert _apply(cache, op, step) == _apply(reference, op, step), (step, op)
        assert _state(cache) == _state(reference), (step, op)
    drain = ("drain", 0, False, False)
    assert _apply(cache, drain, len(stream)) == _apply(reference, drain, len(stream))
    assert _state(cache) == _state(reference)
    if policy == EveryHook.name:
        assert cache.policy.calls == reference.policy.calls


def test_a_fixed_stream_reaches_every_operation_and_hook():
    """One stream certain to fill sets past their ways, hit, refill in
    place, install into a full set, evict, invalidate and drain a
    non-empty cache, with every hook dispatched, gives the same results."""
    stream = [("fill", a, False, a % 2 == 0) for a in range(ADDRESSES)]
    last = ADDRESSES - 1  # the last fills are resident
    stream += [("lookup", last, True, False), ("fill", last - 1, True, False),
               ("install", 5, False, False), ("evict", last - 2, False, False),
               ("invalidate", last - 3, False, False), ("drain", 0, False, False)]
    cache = Cache(WAYS * SETS * 64, WAYS, name="ref", policy=EveryHook())
    reference = OrderedCache(WAYS * SETS * 64, WAYS, name="ref", policy=OrderedEveryHook())
    results = [(_apply(cache, op, i), _apply(reference, op, i)) for i, op in enumerate(stream)]
    assert all(a == b for a, b in results)
    assert cache.policy_evictions == reference.policy_evictions > 0
    assert cache.prefetch_victims == reference.prefetch_victims > 0
    assert results[-1][0] and results[-1][0] == results[-1][1]
    kinds = {call[0] for call in cache.policy.calls}
    assert kinds == {"hit", "fill", "evict", "victim"}
    assert cache.policy.calls == reference.policy.calls

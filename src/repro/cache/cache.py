"""Set-associative write-back cache with per-line data and metadata.

Used for every level of the hierarchy (L1/L2/L3) and for the baseline
design's 32KB metadata cache.  Lines carry their actual 64-byte contents —
the compression machinery needs real values — plus the PTMC bookkeeping
the paper adds to the LLC tag store: a dirty bit, the 2-bit compression
level observed when the line was filled from memory, the requesting-core
id (for per-core Dynamic-PTMC) and a "prefetched, not yet referenced"
bit used to credit useful bandwidth-free prefetches.

Replacement is delegated to a pluggable
:class:`~repro.cache.replacement.ReplacementPolicy` (DESIGN.md §10).
Each set is a plain ``dict``, whose insertion order the policy may
reorder; the default ``lru`` policy keeps each set in the order the
historical hard-coded ``OrderedDict`` had, so default-path simulations
are bitwise identical to the pre-seam code.  Hooks a policy leaves at
the base class's no-op are not dispatched at all, and LRU's hit hook (a
pop and reinsert, which moves the line to the recency tail) and victim
choice (the set's first key) are applied inline; a policy that
overrides a hook or ``select_victim`` receives every call.
"""

from __future__ import annotations

from typing import Annotated, Callable, Dict, Iterator, List, Optional, Union

from repro.cache.replacement import DEFAULT_POLICY, LRUPolicy, ReplacementPolicy, make_policy
from repro.telemetry import StatScope
from repro.types import Contents, Level, line_data
from repro.util.schema import Rule, check_value

#: A cache's ways and line size: an int, one or more.  ``HierarchyConfig``
#: declares each level's ways with it.
Positive = Annotated[int, Rule(least=1)]


class CacheLine:
    """One resident line: contents plus tag-store metadata.

    ``data`` is the line's 64 bytes.  A line filled from a never-written
    home slot may hold them unrendered, as a
    :class:`~repro.types.FirstTouch`, until ``data`` is first read or a
    store replaces them (:data:`~repro.types.line_data`).
    """

    __slots__ = ("addr", "_data", "dirty", "fill_level", "core_id", "prefetched")

    def __init__(
        self,
        addr: int,
        data: Contents,
        dirty: bool = False,
        fill_level: Level = Level.UNCOMPRESSED,
        core_id: int = 0,
        prefetched: bool = False,
    ) -> None:
        self.addr = addr
        self._data = data
        self.dirty = dirty
        self.fill_level = fill_level
        self.core_id = core_id
        self.prefetched = prefetched

    data = line_data

    def __repr__(self) -> str:
        return (
            f"CacheLine(addr={self.addr!r}, data={self._data!r}, "
            f"dirty={self.dirty!r}, fill_level={self.fill_level!r}, "
            f"core_id={self.core_id!r}, prefetched={self.prefetched!r})"
        )


EvictedLine = CacheLine
"""A line pushed out of the cache, with the state the victim had.

An evicted line is the record that was resident, handed over as is once
the cache has let go of it — no copy.  ``prefetched`` preserves the
victim's "installed by a co-fetch, never demand-referenced" flag so the
hierarchy can account wasted prefetches (a bit the pre-seam code
silently dropped).
"""


def _inherits(policy: ReplacementPolicy, hook: str, cls: type) -> bool:
    """Whether ``policy.<hook>`` is ``cls``'s implementation, unoverridden."""
    overridden_here = hook in getattr(policy, "__dict__", ())
    return not overridden_here and getattr(type(policy), hook) is getattr(cls, hook)


class Cache:
    """A set-associative cache of 64-byte lines with pluggable replacement.

    ``policy`` accepts a registry name (``"lru"``, ``"fifo"``,
    ``"random"``, ``"srrip"``, ``"pref_lru"``) or a ready
    :class:`ReplacementPolicy` instance.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_size: int = 64,
        name: str = "cache",
        policy: Union[str, ReplacementPolicy] = DEFAULT_POLICY,
    ) -> None:
        check_value("ways", ways, Positive)
        check_value("line_size", line_size, Positive)
        if size_bytes % (ways * line_size) != 0:
            raise ValueError("cache size must be a multiple of ways * line size")
        self.name = name
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(self.num_sets)]
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

    # Indexing -----------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return addr % self.num_sets

    # Lookup / update ------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line (updating policy state) or ``None``.

        Statistics count a hit/miss per call; use ``probe`` for a
        side-effect-free check.
        """
        set_index = addr % self.num_sets
        cache_set = self._sets[set_index]
        line = cache_set.get(addr)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            if self._lru_hits:
                cache_set[addr] = cache_set.pop(addr)
            elif self._hit_hook:
                self._policy.on_hit(set_index, cache_set, addr)
        return line

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Check residency without touching policy state or statistics."""
        return self._sets[addr % self.num_sets].get(addr)

    def fill(
        self,
        addr: int,
        data: Contents,
        dirty: bool = False,
        fill_level: Level = Level.UNCOMPRESSED,
        core_id: int = 0,
        prefetched: bool = False,
    ) -> Optional[EvictedLine]:
        """Install a line, returning the victim if one was displaced.

        Filling an already-resident address updates it in place (no
        eviction) and counts as a touch; callers use this for writes
        that hit.
        """
        set_index = addr % self.num_sets
        cache_set = self._sets[set_index]
        existing = cache_set.get(addr)
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            if self._lru_hits:
                cache_set[addr] = cache_set.pop(addr)
            elif self._hit_hook:
                self._policy.on_hit(set_index, cache_set, addr)
            return None
        return self.install(CacheLine(addr, data, dirty, fill_level, core_id, prefetched))

    def install(self, line: CacheLine) -> Optional[EvictedLine]:
        """Make ``line`` itself resident, returning the victim if one was
        displaced.

        The record is held as is, not copied, so a caller can share one
        record between caches (the hierarchy's private levels hold the
        L3's).  Its address must not be resident here already.
        """
        addr = line.addr
        set_index = addr % self.num_sets
        cache_set = self._sets[set_index]
        if addr in cache_set:
            raise ValueError(f"{self.name}: line {addr:#x} is already resident")
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self.ways:
            if self._lru_victims:
                victim = cache_set.pop(next(iter(cache_set)))
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

    def evict(self, addr: int) -> Optional[EvictedLine]:
        """Forcibly remove a specific line (ganged eviction support)."""
        set_index = addr % self.num_sets
        line = self._sets[set_index].pop(addr, None)
        if line is not None and self._evict_hook:
            self._policy.on_evict(set_index, addr)
        return line

    def invalidate(self, addr: int) -> bool:
        """Drop a line without writeback; returns whether it was present."""
        set_index = addr % self.num_sets
        present = self._sets[set_index].pop(addr, None) is not None
        if present and self._evict_hook:
            self._policy.on_evict(set_index, addr)
        return present

    # Iteration / statistics ----------------------------------------------

    def resident(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def register_stats(self, scope: StatScope, windowed: bool = True) -> None:
        """Expose hit/miss counters and the derived hit rate.

        ``windowed=False`` keeps whole-run accounting across a snapshot
        boundary (the MemZip metadata cache reports its historical
        warmup-inclusive hit rate this way).
        """
        hits = scope.counter("hits", lambda: self.hits, windowed=windowed)
        misses = scope.counter("misses", lambda: self.misses, windowed=windowed)
        scope.ratio("hit_rate", hits, [hits, misses])

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.policy_evictions = 0
        self.prefetch_victims = 0

    def drain(self, sink: Callable[[EvictedLine], None]) -> None:
        """Evict everything through ``sink`` (end-of-simulation flush)."""
        for set_index, cache_set in enumerate(self._sets):
            while cache_set:
                addr = next(iter(cache_set))
                line = cache_set.pop(addr)
                if self._evict_hook:
                    self._policy.on_evict(set_index, addr)
                sink(line)

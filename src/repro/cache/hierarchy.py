"""Three-level cache hierarchy wired to a memory controller.

Organisation follows the paper's Table I: private L1/L2 per core and a
shared 8MB/16-way L3 (LLC) over 64-byte lines.  The memory controller is
consulted on L3 misses and L3 evictions; co-fetched lines returned by
compressed reads are installed into L3 with a "prefetched" bit so
Dynamic-PTMC can credit useful bandwidth-free prefetches.

Fidelity simplification (documented in DESIGN.md): L1/L2 are write-through
to the L3, so the L3 copy is always current and carries the dirty bit.
This leaves DRAM traffic — the paper's subject — unchanged while letting
the controller treat L3 contents as authoritative when it compacts
neighbour groups at eviction time.  Inclusion is enforced by
back-invalidating L1/L2 on L3 eviction.

Because of both, a private level holds no state of its own: L1 and L2
install the L3's own :class:`CacheLine` record rather than a copy, so a
store updates one record (DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, List, Optional

from repro.cache.cache import Cache, CacheLine, EvictedLine, Positive
from repro.cache.replacement import DEFAULT_POLICY
from repro.core.base_controller import LLCView, MemoryController
from repro.core.policy import CompressionPolicy
from repro.telemetry import StatScope
from repro.types import Contents, Level
from repro.util.schema import Checked, Rule

#: A level's hit latency in core cycles: an int, zero or more.
Latency = Annotated[int, Rule(least=0)]


@dataclass(frozen=True)
class HierarchyConfig(Checked):
    """Cache sizes, ways and latencies (paper Table I; latencies are
    typical values).

    The core count and the L3's replacement policy are
    ``SimConfig.num_cores`` and ``SimConfig.llc_policy``, handed to
    :class:`CacheHierarchy` on their own; the private levels run LRU.
    """

    l1_bytes: int = 32 * 1024
    l1_ways: Positive = 8
    l1_latency: Latency = 3
    l2_bytes: int = 256 * 1024
    l2_ways: Positive = 8
    l2_latency: Latency = 12
    l3_bytes: int = 8 * 1024 * 1024
    l3_ways: Positive = 16
    l3_latency: Latency = 35


class _HierarchyLLCView(LLCView):
    """The controller's window into the L3 (plus inclusion maintenance)."""

    def __init__(self, hierarchy: "CacheHierarchy") -> None:
        self._h = hierarchy

    def probe(self, addr: int) -> Optional[CacheLine]:
        return self._h.l3.probe(addr)

    def force_evict(self, addr: int) -> Optional[EvictedLine]:
        line = self._h.l3.evict(addr)
        if line is not None:
            self._h._left_l3(line)
        return line

    def is_sampled_set(self, addr: int) -> bool:
        policy = self._h.policy
        if policy is None:
            return False
        # Sampling is decided per compression group (the 4-line unit whose
        # members span 4 consecutive LLC sets): a group's eviction costs
        # and the hits on its co-fetched members must be attributed to the
        # same always-compress sample for the cost/benefit counter to be
        # self-consistent.  Sampling 1/period of the groups is the
        # group-mapped equivalent of the paper's 1%-of-sets sampling.
        return policy.is_sampled_set(addr >> 2)


class CacheHierarchy:
    """L1/L2 per core + shared L3, fronting a memory controller.

    ``num_cores`` pairs of private LRU caches sit under one L3 running
    ``llc_policy`` (a :data:`~repro.cache.replacement.POLICIES` name).
    """

    def __init__(
        self,
        controller: MemoryController,
        config: HierarchyConfig,
        num_cores: int,
        policy: Optional[CompressionPolicy] = None,
        llc_policy: str = DEFAULT_POLICY,
    ) -> None:
        self.config = config
        self.controller = controller
        self.policy = policy
        self.l1s: List[Cache] = [
            Cache(config.l1_bytes, config.l1_ways, name=f"l1_{c}") for c in range(num_cores)
        ]
        self.l2s: List[Cache] = [
            Cache(config.l2_bytes, config.l2_ways, name=f"l2_{c}") for c in range(num_cores)
        ]
        self.l3 = Cache(config.l3_bytes, config.l3_ways, name="l3", policy=llc_policy)
        self.llc_view = _HierarchyLLCView(self)
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._l3_latency = config.l3_latency
        self.useful_prefetches = 0
        self.wasted_prefetches = 0
        self.demand_accesses = 0

    def register_stats(self, scope: StatScope) -> None:
        """Expose LLC counters at the scope root plus L1/L2 aggregates.

        The shared L3 is the hierarchy's headline statistic, so its
        hit/miss counters sit directly at ``llc.*``; the private levels
        aggregate across cores under ``llc.l1.*`` / ``llc.l2.*``.
        """
        self.l3.register_stats(scope)
        scope.counter("useful_prefetches", lambda: self.useful_prefetches)
        scope.counter(
            "wasted_prefetches",
            lambda: self.wasted_prefetches,
            doc="prefetched lines evicted from the L3 before any demand reference",
        )
        scope.counter("demand_accesses", lambda: self.demand_accesses)
        scope.counter(
            "policy_evictions",
            lambda: self.l3.policy_evictions,
            doc="L3 capacity evictions decided by the replacement policy",
        )
        scope.counter(
            "prefetch_victims",
            lambda: self.l3.prefetch_victims,
            doc="L3 policy victims that were never-referenced prefetches",
        )
        for name, caches in (("l1", self.l1s), ("l2", self.l2s)):
            level = scope.scope(name)
            hits = level.counter(
                "hits", lambda cs=caches: sum(c.hits for c in cs)
            )
            misses = level.counter(
                "misses", lambda cs=caches: sum(c.misses for c in cs)
            )
            level.ratio("hit_rate", hits, [hits, misses])

    # ------------------------------------------------------------------

    def access(
        self,
        core_id: int,
        addr: int,
        is_write: bool,
        now: int,
        write_data: Optional[Contents] = None,
    ) -> int:
        """One demand access from a core; returns the cycle its data is
        available (the serving level's latency after ``now``, or the
        memory read's completion plus the L3's)."""
        if is_write and write_data is None:
            raise ValueError("writes must carry their new line contents")
        self.demand_accesses += 1
        l1 = self.l1s[core_id]

        if l1.lookup(addr) is not None:
            if is_write:
                self._store(addr, write_data)
            return now + self._l1_latency

        l2 = self.l2s[core_id]
        line = l2.lookup(addr)
        if line is not None:
            l1.install(line)
            if is_write:
                self._store(addr, write_data)
            return now + self._l2_latency

        l3 = self.l3
        line = l3.lookup(addr)
        if line is not None:
            # refresh ownership: the demanding core's L1/L2 now hold the
            # record, so inclusion maintenance must target *its* caches
            line.core_id = core_id
            if line.prefetched:
                line.prefetched = False
                self.useful_prefetches += 1
                if self.policy is not None and self.llc_view.is_sampled_set(addr):
                    self.policy.on_benefit(line.core_id)
            l2.install(line)
            l1.install(line)
            if is_write:
                self._store(addr, write_data)
            return now + self._l3_latency

        # L3 miss: go to the memory controller.
        result = self.controller.read_line(addr, now, core_id, self.llc_view)
        level = result.level
        extra_lines = result.extra_lines
        if extra_lines:
            for extra_addr, extra_data in extra_lines.items():
                if l3.probe(extra_addr) is None:
                    self._install_l3(
                        extra_addr, extra_data, now, core_id, level, prefetched=True
                    )
        # the read's contents move into the L3 record as they are, so a
        # deferred first-touch line stays unrendered until a reader of
        # ``data`` renders it or a store replaces it
        line = CacheLine(addr, result._data, False, level, core_id, False)
        victim = l3.install(line)
        if victim is not None:
            # ``_left_l3`` for a capacity victim: account a wasted
            # prefetch, back-invalidate the owner's private copies, then
            # hand the victim to the controller
            if victim.prefetched:
                self.wasted_prefetches += 1
            victim_core = victim.core_id
            self.l1s[victim_core].invalidate(victim.addr)
            self.l2s[victim_core].invalidate(victim.addr)
            self.controller.handle_eviction(victim, now, victim_core, self.llc_view)
        l2.install(line)
        l1.install(line)
        if is_write:
            self._store(addr, write_data)
        return result.completion + self._l3_latency

    # ------------------------------------------------------------------

    def _store(self, addr: int, data: Contents) -> None:
        """Write-through a store: the L3 record, which the private levels
        holding the line share, takes the data (deferred or not, as the
        record carried it) and the dirty bit."""
        line = self.l3.probe(addr)
        if line is None:
            raise RuntimeError("inclusion violated: store target missing from L3")
        line.data = data
        line.dirty = True

    def _install_l3(
        self,
        addr: int,
        data: Contents,
        now: int,
        core_id: int,
        fill_level: Level,
        prefetched: bool = False,
    ) -> CacheLine:
        """Install a fresh L3 record (its address is not resident) and
        hand any capacity victim to the controller; returns the record.

        ``access`` does the same inline for the demanded line; this is
        for the lines a compressed read co-fetches."""
        line = CacheLine(addr, data, False, fill_level, core_id, prefetched)
        victim = self.l3.install(line)
        if victim is not None:
            self._left_l3(victim)
            self.controller.handle_eviction(victim, now, victim.core_id, self.llc_view)
        return line

    def _left_l3(self, line: EvictedLine) -> None:
        """Account a line leaving the L3 (capacity victim or ganged) and
        enforce inclusion by back-invalidating it.

        Physical pages are core-private (the VM model allocates frames per
        core), so only the owning core's L1/L2 can hold the line — its
        ``core_id`` avoids probing every private cache.
        """
        if line.prefetched:
            self.wasted_prefetches += 1
        core_id = line.core_id
        self.l1s[core_id].invalidate(line.addr)
        self.l2s[core_id].invalidate(line.addr)

    def flush(self, now: int) -> None:
        """Drain the hierarchy through the controller (end of simulation).

        The L3 drains set by set, head first, each victim handed to the
        controller as it leaves.  A controller's ``handle_eviction`` only
        ever removes L3 lines (ganged partners), so every set before the
        one draining stays empty, and the order is that of repeatedly
        evicting the first resident line, in one pass.
        """
        for caches in (self.l1s, self.l2s):
            for cache in caches:
                cache.drain(lambda line: None)  # write-through: nothing to do
        llc_view = self.llc_view
        self.l3.drain(
            lambda victim: self.controller.handle_eviction(
                victim, now, victim.core_id, llc_view
            )
        )

    @property
    def l3_hit_rate(self) -> float:
        return self.l3.hit_rate

"""Pluggable replacement policies for the set-associative cache model.

The :class:`~repro.cache.cache.Cache` stores each set as an ordered
mapping ``addr -> CacheLine``; a :class:`ReplacementPolicy` decides which
resident line that mapping gives up when a fill needs a way.  The policy
owns the set's *ordering semantics*: it is handed the live set mapping on
every hit/fill and may reorder it (LRU-family policies use the mapping's
own insertion order as their recency stack, exactly like the historical
``OrderedDict`` implementation), or keep side state of its own (SRRIP's
re-reference counters).

The contract every policy must honour:

- ``select_victim`` is only called on a full set and must return the
  address of a *resident* line.
- Hooks are informational; a policy may mutate only the *order* of the
  set mapping, never its contents.
- Policies must be deterministic functions of the access stream and
  their constructor arguments.  :class:`RandomPolicy` derives its RNG
  from ``(cache name, seed)``, so two simulations of the same config are
  bitwise identical even when they run in different worker processes of
  a parallel sweep.

``lru`` is the default everywhere and reproduces the pre-refactor
``OrderedDict`` behaviour operation-for-operation: the golden test in
``tests/test_policy_golden.py`` holds all seven designs to bitwise
equality with results captured before this seam existed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.cache import CacheLine

#: The set mapping a policy sees: insertion-ordered ``addr -> CacheLine``.
SetView = "OrderedDict[int, CacheLine]"


class ReplacementPolicy:
    """Victim selection plus on-fill/on-hit/on-evict bookkeeping hooks."""

    #: Registry name (``repro policies`` lists these).
    name: str = "base"
    #: One-line description for listings and docs.
    description: str = "abstract policy interface"

    def bind(self, num_sets: int, ways: int) -> None:
        """Size any per-set side state; called once by the owning cache."""

    def on_hit(self, set_index: int, cache_set, addr: int) -> None:
        """A resident line was touched (demand hit or in-place refill)."""

    def on_fill(self, set_index: int, cache_set, addr: int) -> None:
        """A new line was just inserted (it is already in ``cache_set``)."""

    def on_evict(self, set_index: int, addr: int) -> None:
        """A line left the set (victimised, forced out, or invalidated)."""

    def select_victim(self, set_index: int, cache_set) -> int:
        """The address to displace from a full set."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via the set mapping's own order (the default).

    Hits move the line to the tail; the victim is the head.  This is
    operation-for-operation the historical ``OrderedDict`` behaviour, so
    the default path stays bitwise identical to the pre-seam code.
    """

    name = "lru"
    description = "least-recently-used (default; pre-seam behaviour)"

    def on_hit(self, set_index: int, cache_set, addr: int) -> None:
        """Move the line to the recency tail.

        :class:`~repro.cache.cache.Cache` inlines this rule for any
        policy that inherits it unoverridden, so it is never called
        there; ``tests/test_replacement.py`` checks the two stay equal.
        """
        cache_set.move_to_end(addr)

    def select_victim(self, set_index: int, cache_set) -> int:
        return next(iter(cache_set))


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: insertion order only, hits never promote."""

    name = "fifo"
    description = "first-in-first-out (hits never promote)"

    def select_victim(self, set_index: int, cache_set) -> int:
        return next(iter(cache_set))


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim from a per-cache deterministically seeded RNG.

    The RNG seed is ``"<cache name>:<seed>"`` — a pure function of the
    configuration, never of process state — so parallel sweep workers
    reproduce serial runs bit-for-bit.
    """

    name = "random"
    description = "seeded uniform-random victim (bitwise reproducible)"

    def __init__(self, cache_name: str = "cache", seed: int = 0) -> None:
        self._rng = random.Random(f"{cache_name}:{seed}")

    def select_victim(self, set_index: int, cache_set) -> int:
        return self._rng.choice(list(cache_set))


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10).

    Each line carries an RRPV counter: fills insert with a *long*
    predicted interval (``2^bits - 2``), hits promote to *near-immediate*
    (``0``), and the victim is the first line (in set order) already at
    the *distant* maximum — ageing every line until one qualifies.
    Scan-resistant where LRU thrashes: a streaming fill cannot displace
    the re-referenced working set until it actually ages out.
    """

    name = "srrip"
    description = "static re-reference interval prediction (2-bit, scan-resistant)"

    def __init__(self, bits: int = 2) -> None:
        if bits < 1:
            raise ValueError("SRRIP needs at least one RRPV bit")
        self.max_rrpv = (1 << bits) - 1
        self.insert_rrpv = self.max_rrpv - 1
        self._rrpv: List[Dict[int, int]] = []

    def bind(self, num_sets: int, ways: int) -> None:
        self._rrpv = [{} for _ in range(num_sets)]

    def on_hit(self, set_index: int, cache_set, addr: int) -> None:
        self._rrpv[set_index][addr] = 0

    def on_fill(self, set_index: int, cache_set, addr: int) -> None:
        self._rrpv[set_index][addr] = self.insert_rrpv

    def on_evict(self, set_index: int, addr: int) -> None:
        self._rrpv[set_index].pop(addr, None)

    def select_victim(self, set_index: int, cache_set) -> int:
        rrpv = self._rrpv[set_index]
        while True:
            for addr in cache_set:
                if rrpv.get(addr, self.insert_rrpv) >= self.max_rrpv:
                    return addr
            for addr in cache_set:
                rrpv[addr] = min(rrpv.get(addr, self.insert_rrpv) + 1, self.max_rrpv)


class PrefetchAwareLRUPolicy(LRUPolicy):
    """LRU that sacrifices never-referenced prefetched lines first.

    PTMC installs co-fetched neighbour lines with ``prefetched=True`` and
    clears the bit on first demand reference.  Under pressure, a line the
    program never asked for is the cheapest thing to lose: the victim is
    the least-recent line still flagged ``prefetched``; only when no
    unreferenced prefetch is resident does plain LRU apply.
    """

    name = "pref_lru"
    description = "LRU that victimises never-referenced prefetched lines first"

    def select_victim(self, set_index: int, cache_set) -> int:
        for addr, line in cache_set.items():
            if line.prefetched:
                return addr
        return next(iter(cache_set))


#: Name -> class registry (``repro policies``, CLI flags, config knobs).
POLICIES: Dict[str, Type[ReplacementPolicy]] = {
    cls.name: cls
    for cls in (LRUPolicy, FIFOPolicy, RandomPolicy, SRRIPPolicy, PrefetchAwareLRUPolicy)
}

#: The policy every cache level uses unless configured otherwise.
DEFAULT_POLICY = LRUPolicy.name


def make_policy(
    name: str, cache_name: str = "cache", seed: int = 0
) -> ReplacementPolicy:
    """Instantiate a registered policy for one cache.

    ``cache_name`` and ``seed`` only matter to policies that need
    per-cache deterministic randomness (:class:`RandomPolicy`); the rest
    ignore them.
    """
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return cls(cache_name=cache_name, seed=seed)
    return cls()


__all__ = [
    "DEFAULT_POLICY",
    "FIFOPolicy",
    "LRUPolicy",
    "POLICIES",
    "PrefetchAwareLRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SRRIPPolicy",
    "make_policy",
]

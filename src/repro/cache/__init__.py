"""Cache substrate: set-associative caches, pluggable replacement, hierarchy."""

from repro.cache.cache import Cache, CacheLine, EvictedLine
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.replacement import (
    DEFAULT_POLICY,
    POLICIES,
    FIFOPolicy,
    LRUPolicy,
    PrefetchAwareLRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SRRIPPolicy,
    make_policy,
)

__all__ = [
    "Cache",
    "CacheLine",
    "EvictedLine",
    "CacheHierarchy",
    "HierarchyConfig",
    "DEFAULT_POLICY",
    "POLICIES",
    "FIFOPolicy",
    "LRUPolicy",
    "PrefetchAwareLRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SRRIPPolicy",
    "make_policy",
]

"""Content-addressed on-disk cache for simulation results.

Simulations are pure functions of (workload parameters, design, config):
the trace generators, data patterns and DRAM model are all seeded from
the :class:`~repro.sim.config.SimConfig` and the workload spec.  That
makes results safe to persist and share across processes — a full sweep
re-run in a cold process can be satisfied entirely from disk.

Keys are a SHA-256 over the *fully resolved* identity of the run:

- the workload's complete parameter set (not just its name — two specs
  that share a name but differ in any parameter must never share
  results),
- the design string,
- every field of the resolved ``SimConfig`` (recursively) except
  ``batch_chunk``, a performance knob that cannot change a result, and
  the sections the design never reads (:data:`UNREAD_SECTIONS`), so one
  result is stored under one key, and
- :func:`code_digest`, a hash of the ``repro`` sources that produce the
  result: a behaviour change is a source change, so results stored by
  other code are never served.

Entries are the versioned JSON produced by
:meth:`repro.sim.results.SimResult.to_json_dict`; corrupt files and
payloads of another layout version are discarded and treated as misses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

try:  # advisory write locking (POSIX); harmless to run without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.obs.tracing import span
from repro.sim.results import ResultDecodeError, SimResult

#: Environment variable that overrides the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-ptmc/sim``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(base) / "repro-ptmc" / "sim"


# ---------------------------------------------------------------------------
# Stable identities
# ---------------------------------------------------------------------------


def stable_identity(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-able primitives, stably and recursively.

    Dataclasses are tagged with their class name so two different types
    with coincidentally equal fields cannot collide; enum members reduce
    to (type, value); dict entries are sorted by their serialized key so
    insertion order never leaks into the hash.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return ["bytes", obj.hex()]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: stable_identity(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return [type(obj).__name__, fields]
    if isinstance(obj, dict):
        entries = sorted(
            (json.dumps(stable_identity(k), sort_keys=True), stable_identity(v))
            for k, v in obj.items()
        )
        return ["dict", entries]
    if isinstance(obj, (list, tuple)):
        return ["seq", [stable_identity(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(stable_identity(i), sort_keys=True) for i in obj)]
    raise TypeError(f"cannot build a stable identity for {type(obj).__name__}: {obj!r}")


def workload_identity(workload: Any) -> Any:
    """The workload's *full parameter* identity.

    This — not ``workload.name`` — is what a disk-cache key must
    use: a ``WorkloadSpec`` reduces to every field (footprint,
    locality fractions, data profile, seed, …) and a ``MixWorkload`` to
    its per-core spec list, so same-named-but-different workloads get
    distinct keys.
    """
    return stable_identity(workload)


#: The ``SimConfig`` sections each design never reads.  Only
#: ``system.build_controller`` reads these four, and only for the designs
#: that use them; ``tests/test_diskcache.py`` runs every design with each
#: section listed here perturbed and finds the same metrics.
UNREAD_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "uncompressed": ("compression", "metadata", "ptmc", "sampling"),
    "prefetch": ("compression", "metadata", "ptmc", "sampling"),
    "ideal": ("metadata", "ptmc", "sampling"),
    "tmc_table": ("ptmc", "sampling"),
    "memzip": ("ptmc", "sampling"),
    "static_ptmc": ("metadata", "sampling"),
    "dynamic_ptmc": ("metadata",),
}


def config_identity(config: Any, design: str) -> Any:
    """The fully-resolved ``SimConfig`` identity of a run of ``design``
    (recursive over presets).

    ``batch_chunk`` is left out: it only picks how the trace is fed, and
    every feed gives a bitwise-identical result
    (``tests/test_sim_batch_golden.py``).  So are the sections ``design``
    never reads (:data:`UNREAD_SECTIONS`).  One result has one key.
    """
    identity = stable_identity(config)
    if dataclasses.is_dataclass(config):
        for name in ("batch_chunk", *UNREAD_SECTIONS.get(design, ())):
            identity[1].pop(name, None)
    return identity


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """SHA-256 over every ``*.py`` of the imported ``repro`` package.

    Each file contributes its path relative to the package and the hash
    of its bytes, in path order.  Computed on first use, once per
    process (a simulation that never meets the cache never pays for it).
    ``repro serve`` and ``repro worker`` call it when they start, so the
    digest they name is the code they imported, however long they wait
    for their first job; their forked pool processes inherit it.
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def cache_key(workload: Any, design: str, config: Any) -> str:
    """Stable SHA-256 key for one (workload, design, config) run."""
    blob = json.dumps(
        {
            "code": code_digest(),
            "workload": workload_identity(workload),
            "design": design,
            "config": config_identity(config, design),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CacheCounters:
    """Hit/miss accounting for one :class:`DiskCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evicted_corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class DiskCache:
    """A directory of ``<sha256>.json`` result files, written atomically.

    Concurrent writers (the parallel sweep workers) are safe: entries are
    written to a temporary file and ``os.replace``-d into place, and any
    truncated, corrupt or other-layout file is deleted and reported as a miss.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.counters = CacheCounters()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for ``key``, or ``None`` (counted as a miss)."""
        with span("diskcache.get", category="cache", key=key[:12]):
            path = self._path(key)
            try:
                text = path.read_text()
            except OSError:
                self.counters.misses += 1
                return None
            try:
                result = SimResult.from_json(text)
            except ResultDecodeError:
                self.counters.misses += 1
                self.counters.evicted_corrupt += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            self.counters.hits += 1
            return result

    @contextlib.contextmanager
    def _write_lock(self, key: str):
        """Advisory per-key write lock (no-op where ``fcntl`` is missing).

        Writes are already crash-safe — each writer stages its own temp
        file and ``os.replace``s it into place atomically — so the lock
        only *serialises* concurrent writers of one key (service workers
        racing a CLI sweep), guaranteeing the surviving entry is one
        writer's complete output rather than relying on rename ordering.
        """
        if fcntl is None:
            yield
            return
        lock_path = self._path(key).with_suffix(".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def put(self, key: str, result: SimResult) -> None:
        """Persist ``result`` under ``key`` (atomic, locked, last writer wins)."""
        with span("diskcache.put", category="cache", key=key[:12]):
            self._put_locked(key, result)

    def _put_locked(self, key: str, result: SimResult) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._write_lock(key):
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json.tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(result.to_json())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        self.counters.stores += 1

    # -- maintenance -----------------------------------------------------

    def _entry_paths(self):
        if not self.root.is_dir():
            return
        yield from self.root.glob("*/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
            self._remove_lock(path)
        return removed

    def entry_ages(self) -> Optional[Tuple[float, float]]:
        """``(oldest, newest)`` entry age in seconds, or ``None`` if empty."""
        now = time.time()
        ages = []
        for path in self._entry_paths():
            try:
                ages.append(now - path.stat().st_mtime)
            except OSError:
                pass
        if not ages:
            return None
        return max(ages), min(ages)

    def prune(self, older_than_seconds: float) -> int:
        """Delete entries last written more than ``older_than_seconds`` ago.

        Long-running service hosts call this (``repro cache prune``) to
        bound the shared result store; pruned identities simply
        re-simulate on next request.
        """
        cutoff = time.time() - older_than_seconds
        removed = 0
        for path in list(self._entry_paths()):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
                    self._remove_lock(path)
            except OSError:
                pass
        return removed

    def _remove_lock(self, entry_path: Path) -> None:
        try:
            entry_path.with_suffix(".lock").unlink()
        except OSError:
            pass

    def stats(self) -> Dict[str, Any]:
        """Everything ``repro cache stats`` reports."""
        ages = self.entry_ages()
        return {
            "dir": str(self.root),
            "entries": len(self),
            "bytes": self.size_bytes(),
            "oldest_age_seconds": round(ages[0], 3) if ages else None,
            "newest_age_seconds": round(ages[1], 3) if ages else None,
            **self.counters.as_dict(),
        }


__all__ = [
    "CACHE_DIR_ENV",
    "CacheCounters",
    "DiskCache",
    "UNREAD_SECTIONS",
    "cache_key",
    "code_digest",
    "config_identity",
    "default_cache_dir",
    "stable_identity",
    "workload_identity",
]

"""Content-addressed compilation cache: in-memory LRU + on-disk tier.

Graph compilation (memory accounting over every variable, vertex, edge
and compute set) is a pure function of the lowered graph and the
:class:`~repro.ipu.machine.IPUSpec` — on real hardware Poplar graph
compilation dominates iteration time, and here it dominates the fig5/fig7
sweeps.  This module stores compilation artefacts under a *canonical
content hash* so an identical (graph, spec, excluded-tiles) triple is
compiled exactly once per cache, process or machine:

* the **memory tier** is a small LRU of decoded records (same process);
* the **disk tier** is one ``.npz`` file per key, written with the
  atomic write-temp/fsync/rename discipline of
  :mod:`repro.faults.checkpoint` (versioned entries, corrupt or
  truncated files fall back to a recompile, never an error).

The module is a pure storage/key layer: it knows nothing about graphs
or compilers.  :mod:`repro.ipu.compiler` converts ``CompiledGraph`` to
and from :class:`CacheRecord` and computes keys; experiment workers in
different processes share a cache by pointing at the same directory.

Like the tracer and metric registry, the installed cache is read with
:func:`get_cache` and installed for a ``with`` block with
:func:`caching` (an :class:`~repro.obs.context.Ambient` slot); the
default is :data:`NULL_CACHE`, a ``CompilationCache(enabled=False)``
whose lookups miss without counting and whose stores do nothing, so the
uncached path costs one attribute check.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import ContextManager

import numpy as np

from repro.faults.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.obs import get_logger, get_registry, get_tracer
from repro.obs.context import Ambient

__all__ = [
    "CACHE_SCHEMA",
    "CacheRecord",
    "CacheStats",
    "CompilationCache",
    "NULL_CACHE",
    "cache_section",
    "caching",
    "canonical_key",
    "dataclass_key",
    "get_cache",
]

#: Entry format version; part of every key, so a layout change cannot
#: resurrect stale entries — it simply misses and recompiles.
CACHE_SCHEMA = "repro.cache/1"

#: Memory-tier capacity (decoded records, LRU-evicted).
MEMORY_ENTRIES = 128


def canonical_key(*parts) -> str:
    """Hex digest of a canonical nested-tuple key.

    Parts must be built from scalars, strings and (nested) tuples whose
    ``repr`` is deterministic — no sets, dicts or object identities.
    The schema version is always mixed in.
    """
    blob = repr((CACHE_SCHEMA,) + tuple(parts)).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def dataclass_key(obj) -> tuple:
    """A dataclass instance as a canonical ``(field, value)`` tuple.

    Used to fold *every* field of an :class:`~repro.ipu.machine.IPUSpec`
    into the cache key, so changing any compiler-visible constant (tile
    count, per-edge code bytes, reserved memory, ...) changes the key.
    """
    return (type(obj).__name__,) + tuple(
        (f.name, getattr(obj, f.name)) for f in dataclass_fields(obj)
    )


@dataclass
class CacheStats:
    """Hit/miss/store/evict/corrupt counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def hits(self) -> int:
        """Total hits regardless of tier (the gateable aggregate)."""
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def merge(self, other: "CacheStats | dict") -> None:
        """Add another instance's counters (worker-process roll-up)."""
        values = other if isinstance(other, dict) else other.as_dict()
        for field in (
            "memory_hits",
            "disk_hits",
            "misses",
            "stores",
            "evictions",
            "corrupt",
        ):
            setattr(self, field, getattr(self, field) + int(values[field]))


@dataclass(frozen=True)
class CacheRecord:
    """One cached compilation artefact: named arrays + JSON-able metadata.

    The cache never inspects the contents; the compiler owns the
    encoding (see ``repro.ipu.compiler._record_from``).
    """

    arrays: dict[str, np.ndarray]
    meta: dict


class CompilationCache:
    """Two-tier content-addressed store for compilation records.

    ``path=None`` keeps the cache memory-only.  With a directory, every
    store also lands on disk (atomically), and lookups fall through the
    LRU to disk — which is how parallel experiment workers share work:
    they all point at one directory, and a key compiled by any worker is
    a disk hit for the rest.

    With ``enabled=False`` (the :data:`NULL_CACHE` singleton) lookups
    miss without counting anything and stores do nothing, so the cache
    never holds state.
    """

    def __init__(
        self, path: str | Path | None = None, *, enabled: bool = True
    ) -> None:
        self.enabled = enabled
        self.path = Path(path) if path is not None else None
        self.stats = CacheStats()
        self._memory: OrderedDict[str, CacheRecord] = OrderedDict()

    # -- tiers ---------------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.npz"

    def _memory_put(self, key: str, record: CacheRecord) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            get_registry().counter("cache.evictions").inc()

    def _disk_get(self, key: str) -> CacheRecord | None:
        if self.path is None:
            return None
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            arrays, meta = load_checkpoint(path)
        except CheckpointError:
            # Truncated/corrupt entry: treat as a miss; the store after
            # the recompile atomically replaces the damaged file.
            self.stats.corrupt += 1
            get_registry().counter("cache.corrupt").inc()
            self._log_corrupt(key, "unreadable entry")
            return None
        if meta.pop("cache_schema", None) != CACHE_SCHEMA or meta.pop(
            "cache_key", None
        ) != key:
            self.stats.corrupt += 1
            get_registry().counter("cache.corrupt").inc()
            self._log_corrupt(key, "schema or key mismatch")
            return None
        return CacheRecord(arrays=arrays, meta=meta)

    @staticmethod
    def _log_corrupt(key: str, reason: str) -> None:
        log = get_logger()
        if log.enabled:
            log.warning("cache.corrupt", reason, key=key[:12])

    # -- public API ----------------------------------------------------------

    def lookup(self, key: str) -> CacheRecord | None:
        """The record stored under *key*, or ``None`` (counted as a miss)."""
        if not self.enabled:
            return None
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span(
            "cache.lookup", category="cache", key=key[:12]
        ) as span:
            record = self._memory.get(key)
            if record is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                tier = "memory"
            else:
                record = self._disk_get(key)
                if record is not None:
                    self._memory_put(key, record)
                    self.stats.disk_hits += 1
                    tier = "disk"
                else:
                    self.stats.misses += 1
                    tier = "miss"
            if tracer.enabled:
                span.attributes["result"] = tier
            if registry.enabled:
                if tier == "miss":
                    registry.counter("cache.misses").inc()
                else:
                    registry.counter("cache.hits").inc()
            if tier == "miss":
                log = get_logger()
                if log.enabled:
                    log.info("cache.miss", key=key[:12])
        return record

    def store(self, key: str, record: CacheRecord) -> None:
        """Insert *record* under *key* in both tiers."""
        if not self.enabled:
            return
        tracer = get_tracer()
        with tracer.span("cache.store", category="cache", key=key[:12]):
            self._memory_put(key, record)
            if self.path is not None:
                meta = {
                    "cache_schema": CACHE_SCHEMA,
                    "cache_key": key,
                    **record.meta,
                }
                save_checkpoint(self._disk_path(key), record.arrays, meta)
            self.stats.stores += 1
            get_registry().counter("cache.stores").inc()

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        where = str(self.path) if self.path is not None else "memory-only"
        s = self.stats
        return (
            f"CompilationCache({where}: {len(self._memory)} in memory, "
            f"{s.hits} hits / {s.misses} misses)"
        )


#: The module-level singleton installed when caching is off.
NULL_CACHE = CompilationCache(enabled=False)

_CACHE: Ambient[CompilationCache] = Ambient(NULL_CACHE)

#: The currently installed cache (the null cache by default).
get_cache = _CACHE.get


def cache_section(cache: CompilationCache) -> dict | None:
    """The ``cache`` section of a ``repro.run/1`` manifest.

    None for a disabled cache, which contributes no section.
    Deliberately excludes the on-disk path and the memory/disk hit
    split: a ``--jobs 4`` run and a ``--jobs 1`` run of the same grid
    then produce identical sections (workers hit the shared disk tier
    where a serial run hits its own memory tier), which the determinism
    test relies on.
    """
    if not cache.enabled:
        return None
    stats = cache.stats
    return {
        "enabled": True,
        "hits": int(stats.hits),
        "misses": int(stats.misses),
        "stores": int(stats.stores),
        "evictions": int(stats.evictions),
        "corrupt": int(stats.corrupt),
    }


def caching(
    cache: CompilationCache | None = None,
) -> ContextManager[CompilationCache]:
    """Install a compilation cache for the duration of a ``with`` block.

    Creates a fresh memory-only :class:`CompilationCache` when none is
    supplied; restores the
    previously installed cache on exit, mirroring
    :func:`repro.obs.tracing` / :func:`repro.obs.collecting`.
    """
    return _CACHE.use(cache if cache is not None else CompilationCache())

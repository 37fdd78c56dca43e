"""Content-addressed compilation cache (see docs/CACHING.md).

Keys are canonical hashes of *what was compiled* — the lowered graph's
provenance or structural fingerprint, every field of the
:class:`~repro.ipu.machine.IPUSpec`, and the excluded-tile set — so a
hit is guaranteed to return artefacts byte-identical to a cold compile.
Two tiers: an in-process LRU and an optional shared on-disk directory
(atomic writes, corrupt entries fall back to recompilation).

Usage::

    from repro import cache

    with cache.caching(cache.CompilationCache("benchmarks/cache")):
        compile_graph(graph, GC200)   # miss: compiles + stores
        compile_graph(graph, GC200)   # hit: returns cached report

``python -m repro <artefact>`` enables this automatically (opt out with
``--no-cache``); hit/miss/store counters surface in ``repro.run/1``
manifests and ``python -m repro report`` output.
"""

from repro.cache.store import (
    CACHE_SCHEMA,
    NULL_CACHE,
    CacheRecord,
    CacheStats,
    CompilationCache,
    cache_section,
    caching,
    canonical_key,
    dataclass_key,
    get_cache,
)

__all__ = [
    "CACHE_SCHEMA",
    "NULL_CACHE",
    "CacheRecord",
    "CacheStats",
    "CompilationCache",
    "cache_section",
    "caching",
    "canonical_key",
    "dataclass_key",
    "get_cache",
]

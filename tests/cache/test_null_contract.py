"""Contract tests: the disabled cache records nothing.

:data:`NULL_CACHE` is a ``CompilationCache(enabled=False)``.  A table
holds one sample call per public method of :class:`CompilationCache`;
each call is applied to the singleton, which must still be empty
afterwards, and a public method missing from the table fails the audit.
Mirrors ``tests/obs/test_null_contract.py``.
"""

import inspect

import numpy as np

from repro.cache import NULL_CACHE, CompilationCache
from repro.cache.store import CacheRecord


def public_methods(cls) -> set[str]:
    return {
        name
        for name, member in inspect.getmembers(
            cls, predicate=inspect.isfunction
        )
        if not name.startswith("_")
    }


def _record() -> CacheRecord:
    return CacheRecord(arrays={"w": np.zeros(3)}, meta={"k": 1})


#: One sample call per public :class:`CompilationCache` method.
SAMPLE_CALLS = {
    "lookup": lambda cache: cache.lookup("key"),
    "store": lambda cache: cache.store("key", _record()),
}


def assert_empty(cache: CompilationCache, after: str = "") -> None:
    fresh = CompilationCache(enabled=False)
    assert vars(cache) == vars(fresh), f"state left by {after}"


class TestBehaviouralAudit:
    def test_every_public_method_sampled(self):
        assert set(SAMPLE_CALLS) == public_methods(CompilationCache), (
            "add a sample call for every public CompilationCache method "
            "(and none for a method it lacks)"
        )

    def test_samples_leave_singleton_empty(self):
        assert type(NULL_CACHE) is CompilationCache
        for name, call in SAMPLE_CALLS.items():
            call(NULL_CACHE)
            assert_empty(NULL_CACHE, after=f"CompilationCache.{name}")


class TestDisabledCache:
    def test_disabled_and_memory_only(self):
        assert not NULL_CACHE.enabled
        assert NULL_CACHE.path is None

    def test_lookup_always_misses_silently(self):
        NULL_CACHE.store("key", _record())
        assert NULL_CACHE.lookup("key") is None
        assert len(NULL_CACHE) == 0
        # Silent means silent: the uncached path must record *no*
        # counters at all, or disabled runs grow cache metrics.
        assert NULL_CACHE.stats.hits == 0
        assert NULL_CACHE.stats.misses == 0
        assert NULL_CACHE.stats.stores == 0

    def test_singleton_state_never_leaks(self):
        NULL_CACHE.store("leak", _record())
        NULL_CACHE.lookup("leak")
        assert len(NULL_CACHE) == 0
        assert NULL_CACHE._memory == {}
        assert NULL_CACHE.stats.as_dict() == CompilationCache().stats.as_dict()

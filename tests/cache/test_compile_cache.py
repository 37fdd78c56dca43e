"""Correctness of the content-addressed compilation cache.

The contract under test: a hit returns artefacts byte-identical to a
cold compile; the key changes when anything that could change the
result changes; corrupt disk entries fall back to recompilation; and
concurrent writers sharing a cache directory never interleave partial
writes.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.cache import (
    CACHE_SCHEMA,
    NULL_CACHE,
    CacheRecord,
    CompilationCache,
    caching,
    canonical_key,
    dataclass_key,
    get_cache,
)
from repro.ipu.compiler import (
    IPUOutOfMemoryError,
    cached_compile,
    compile_cache_key,
    compile_graph,
    graph_fingerprint,
)
from repro.ipu.machine import GC2, GC200
from repro.ipu.poplin import build_matmul_graph, matmul_provenance


def small_graph(n=64, spec=GC200):
    return build_matmul_graph(spec, n, n, n)[0]


class TestKeys:
    def test_canonical_key_is_stable(self):
        assert canonical_key("a", 1) == canonical_key("a", 1)
        assert canonical_key("a", 1) != canonical_key("a", 2)
        assert canonical_key("a", 1) != canonical_key(("a", 1))

    def test_dataclass_key_covers_every_field(self):
        parts = dict(dataclass_key(GC200)[1:])
        for field in dataclasses.fields(GC200):
            assert field.name in parts

    def test_key_changes_on_any_spec_field(self):
        graph = small_graph()
        base = compile_cache_key(graph, GC200)
        for field in dataclasses.fields(GC200):
            value = getattr(GC200, field.name)
            if isinstance(value, str):
                changed = dataclasses.replace(
                    GC200, **{field.name: value + "_x"}
                )
            elif isinstance(value, bool):
                changed = dataclasses.replace(
                    GC200, **{field.name: not value}
                )
            else:
                changed = dataclasses.replace(
                    GC200, **{field.name: type(value)(value * 2 + 1)}
                )
            assert compile_cache_key(graph, changed) != base, (
                f"spec field {field.name} does not affect the cache key"
            )

    def test_key_changes_on_graph_structure(self):
        a = compile_cache_key(small_graph(64), GC200)
        b = compile_cache_key(small_graph(128), GC200)
        assert a != b

    def test_key_changes_on_excluded_tiles(self):
        graph = small_graph()
        graph.provenance = None
        assert compile_cache_key(graph, GC200) != compile_cache_key(
            graph, GC200, exclude_tiles={3}
        )

    def test_provenance_beats_fingerprint(self):
        graph = small_graph()
        assert graph.provenance == matmul_provenance(64, 64, 64)
        with_prov = compile_cache_key(graph, GC200)
        graph.provenance = None
        without = compile_cache_key(graph, GC200)
        assert with_prov != without

    def test_fingerprint_ignores_graph_name(self):
        a, b = small_graph(), small_graph()
        b.name = "renamed"
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_fingerprint_sees_vertex_params(self):
        a, b = small_graph(), small_graph()
        b.batches[0].params["flops"] = 12345
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestHitsAreByteIdentical:
    def test_memory_hit_memory_report(self):
        cache = CompilationCache()
        graph = small_graph()
        with caching(cache):
            cold = compile_graph(graph, GC200, check_fit=False)
            warm = compile_graph(graph, GC200, check_fit=False)
        assert cache.stats.memory_hits == 1
        self._assert_reports_equal(cold.memory, warm.memory)

    def test_disk_hit_memory_report(self, tmp_path):
        graph = small_graph()
        with caching(CompilationCache(path=tmp_path)):
            cold = compile_graph(graph, GC200, check_fit=False)
        fresh = CompilationCache(path=tmp_path)
        with caching(fresh):
            warm = compile_graph(graph, GC200, check_fit=False)
        assert fresh.stats.disk_hits == 1
        self._assert_reports_equal(cold.memory, warm.memory)

    def test_cached_compile_skips_build(self):
        cache = CompilationCache()
        calls = []

        def build():
            calls.append(1)
            return small_graph()

        for _ in range(2):
            compiled = cached_compile(
                matmul_provenance(64, 64, 64),
                build,
                GC200,
                check_fit=False,
                cache=cache,
            )
        assert calls == [1]  # second call never built the graph
        assert compiled.profile().n_vertices > 0

    def test_oom_raises_even_on_hit(self):
        cache = CompilationCache()
        graph = build_matmul_graph(GC2, 4096, 4096, 4096)[0]
        with caching(cache):
            compiled = compile_graph(graph, GC2, check_fit=False)
            assert not compiled.memory.fits
            with pytest.raises(IPUOutOfMemoryError):
                compile_graph(graph, GC2, check_fit=True)
        assert cache.stats.hits == 1

    @staticmethod
    def _assert_reports_equal(a, b):
        assert a.spec == b.spec
        np.testing.assert_array_equal(a.per_tile_bytes, b.per_tile_bytes)
        assert a.total_bytes == b.total_bytes
        assert a.peak_tile_bytes == b.peak_tile_bytes
        assert a.fits == b.fits
        assert dataclasses.astuple(a.breakdown) == dataclasses.astuple(
            b.breakdown
        )


class TestCorruptionFallback:
    def test_corrupt_entry_recompiles(self, tmp_path):
        graph = small_graph()
        with caching(CompilationCache(path=tmp_path)):
            compile_graph(graph, GC200, check_fit=False)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not a zipfile")
        fresh = CompilationCache(path=tmp_path)
        with caching(fresh):
            compiled = compile_graph(graph, GC200, check_fit=False)
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert compiled.memory.total_bytes > 0

    def test_wrong_key_entry_is_rejected(self, tmp_path):
        # An entry renamed to another key (hash collision stand-in) must
        # not be served under the new name.
        cache = CompilationCache(path=tmp_path)
        record = CacheRecord(
            arrays={"x": np.arange(3.0)}, meta={"graph": {}, "spec": "g"}
        )
        cache.store("a" * 32, record)
        stored = tmp_path / ("a" * 32 + ".npz")
        stored.rename(tmp_path / ("b" * 32 + ".npz"))
        fresh = CompilationCache(path=tmp_path)
        assert fresh.lookup("b" * 32) is None
        assert fresh.stats.corrupt == 1

    def test_schema_mismatch_is_rejected(self, tmp_path):
        # An entry written by a future cache schema must read as a miss,
        # not be served or crash.
        from repro.faults.checkpoint import save_checkpoint

        cache = CompilationCache(path=tmp_path)
        key = "c" * 32
        save_checkpoint(
            tmp_path / f"{key}.npz",
            {"payload": np.arange(2.0)},
            {"cache_schema": "repro.cache/999", "cache_key": key},
        )
        assert cache.lookup(key) is None
        assert cache.stats.corrupt == 1
        assert CACHE_SCHEMA == "repro.cache/1"


class TestEvictionAndNull:
    def test_memory_lru_evicts_oldest(self):
        cache = CompilationCache(memory_entries=2)
        for key in ("k1", "k2", "k3"):
            cache.store(
                key, CacheRecord(arrays={}, meta={"spec": key})
            )
        assert cache.stats.evictions == 1
        assert cache.lookup("k1") is None  # evicted
        assert cache.lookup("k2") is not None

    def test_null_cache_is_inert(self):
        before = len(NULL_CACHE)
        NULL_CACHE.store(
            "k", CacheRecord(arrays={}, meta={"spec": "x"})
        )
        assert NULL_CACHE.lookup("k") is None
        assert len(NULL_CACHE) == before
        assert not NULL_CACHE.enabled

    def test_caching_restores_previous(self):
        outer = get_cache()
        with caching() as inner:
            assert get_cache() is inner
        assert get_cache() is outer


def _store_big_entry(args):
    """Cross-process worker: hammer one key with a distinctive payload."""
    path, worker_id, n_rounds = args
    cache = CompilationCache(path=path)
    payload = np.full(200_000, float(worker_id))
    for _ in range(n_rounds):
        cache.store(
            "shared-key",
            CacheRecord(
                arrays={"payload": payload},
                meta={"spec": f"w{worker_id}"},
            ),
        )
    return worker_id


class TestConcurrentWriters:
    def test_two_processes_never_interleave_partial_writes(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            pool.map(
                _store_big_entry,
                [(str(tmp_path), 1, 8), (str(tmp_path), 2, 8)],
            )
        # Whatever write won, the surviving entry must be wholly one
        # writer's record — a clean load whose payload matches its meta.
        cache = CompilationCache(path=tmp_path)
        record = cache.lookup("shared-key")
        assert record is not None
        assert cache.stats.corrupt == 0
        winner = float(record.meta["spec"].lstrip("w"))
        np.testing.assert_array_equal(
            record.arrays["payload"], np.full(200_000, winner)
        )
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []

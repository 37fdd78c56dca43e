"""Unit tests for the deterministic parallel experiment runner.

Workers used with ``jobs > 1`` must be module top-level functions: each
attempt's task is pickled before its process forks from the grid's
process, and pickle passes functions by reference.  Hence the little
zoo of ``_*_worker`` functions below.
"""

import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.bench.parallel import WorkerError, run_grid
from repro.cache import CompilationCache, caching
from repro.obs.log import logging
from repro.obs.metrics import MetricRegistry, collecting


def _seeded_worker(config, seed_seq):
    rng = np.random.default_rng(seed_seq)
    return config, float(rng.integers(0, 1_000_000))


def _failing_worker(config, seed_seq):
    if config == "bad":
        raise ValueError("intentional failure for the test")
    return config


def _multi_failing_worker(config, seed_seq):
    if config % 2:
        raise ValueError(f"odd config {config} rejected")
    return config * 10


def _exit_worker(config, seed_seq):
    if config == 1:
        os._exit(3)  # dies without a traceback: the parent sees only EOF
    time.sleep(0.2)  # siblings are still running when config 1 dies
    return config * 10


def _metrics_worker(config, seed_seq):
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.counter("test.configs").inc()
    registry.gauge("test.last", config=str(config)).set(config)
    registry.histogram("test.values", edges=(1.0, 10.0)).observe(config)
    return config


def _compile_worker(config, seed_seq):
    from repro.ipu.compiler import cached_compile
    from repro.ipu.machine import GC200
    from repro.ipu.poplin import build_matmul_graph, matmul_provenance

    n = config
    compiled = cached_compile(
        matmul_provenance(n, n, n),
        lambda: build_matmul_graph(GC200, n, n, n)[0],
        GC200,
        check_fit=False,
    )
    return compiled.memory.total_bytes


class TestOrderingAndSeeding:
    def test_results_in_config_order(self):
        configs = list(range(8))
        results = run_grid(_seeded_worker, configs, jobs=3)
        assert [c for c, _ in results] == configs

    def test_serial_equals_parallel(self):
        serial = run_grid(_seeded_worker, list(range(6)), jobs=1, seed=5)
        parallel = run_grid(
            _seeded_worker, list(range(6)), jobs=4, seed=5
        )
        assert serial == parallel

    def test_seed_changes_results(self):
        a = run_grid(_seeded_worker, [0, 1], jobs=1, seed=0)
        b = run_grid(_seeded_worker, [0, 1], jobs=1, seed=1)
        assert a != b

    def test_per_config_streams_are_independent(self):
        results = run_grid(_seeded_worker, [0, 0, 0], jobs=1, seed=0)
        draws = [value for _, value in results]
        assert len(set(draws)) == 3  # same config, distinct spawned seeds

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_grid(_seeded_worker, [1], jobs=0)


class TestCrashSurfacing:
    def test_worker_exception_names_config(self):
        with pytest.raises(WorkerError) as excinfo:
            run_grid(
                _failing_worker, ["ok", "bad", "ok2"], jobs=2
            )
        assert excinfo.value.config == "bad"
        assert "intentional failure" in excinfo.value.detail

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="intentional"):
            run_grid(_failing_worker, ["bad"], jobs=1)

    def test_every_failing_config_is_reported(self):
        with pytest.raises(WorkerError) as excinfo:
            run_grid(_multi_failing_worker, [0, 1, 2, 3, 4], jobs=2)
        err = excinfo.value
        # First failure keeps the historical attributes...
        assert err.config == 1
        assert "odd config 1" in err.detail
        # ...and the full accounting names every failing config.
        assert [config for config, _ in err.failures] == [1, 3]
        assert all("rejected" in detail for _, detail in err.failures)
        assert "more failed config" in str(err)

    def test_completed_results_survive_the_raise(self):
        with pytest.raises(WorkerError) as excinfo:
            run_grid(_multi_failing_worker, [0, 1, 2, 3, 4], jobs=2)
        results = excinfo.value.results
        assert results == [0, None, 20, None, 40]

    def test_worker_death_fails_only_its_cell(self):
        with pytest.raises(WorkerError) as excinfo:
            run_grid(_exit_worker, [0, 1, 2, 3, 4], jobs=2)
        err = excinfo.value
        assert [config for config, _ in err.failures] == [1]
        assert err.results == [0, None, 20, 30, 40]

    def test_unpicklable_worker_leaves_no_process(self):
        before = multiprocessing.active_children()
        with pytest.raises((AttributeError, pickle.PicklingError)):
            run_grid(lambda c, s: c, [1], jobs=2)
        leaked = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        assert leaked == []

    def test_single_failure_keeps_plain_message(self):
        with pytest.raises(WorkerError) as excinfo:
            run_grid(_failing_worker, ["ok", "bad"], jobs=2)
        message = str(excinfo.value)
        assert message.startswith("worker failed for config 'bad':")
        assert "more failed config" not in message
        assert excinfo.value.results == ["ok", None]


class TestMerging:
    def test_worker_metrics_merge_into_parent(self):
        with collecting() as registry:
            run_grid(_metrics_worker, [1, 2, 3], jobs=2)
        entries = {
            (e["name"], tuple(sorted(e["labels"].items()))): e
            for e in registry.snapshot()
        }
        assert entries[("test.configs", ())]["value"] == 3
        hist = entries[("test.values", ())]
        assert hist["count"] == 3
        assert hist["sum"] == 6.0

    def test_gauges_take_config_order_last_write(self):
        with collecting() as registry:
            run_grid(_metrics_worker, [7, 9], jobs=2)
        gauges = {
            e["labels"]["config"]: e["value"]
            for e in registry.snapshot()
            if e["name"] == "test.last"
        }
        assert gauges == {"7": 7.0, "9": 9.0}

    def test_merge_snapshot_rejects_edge_mismatch(self):
        registry = MetricRegistry()
        registry.histogram("h", edges=(1.0, 2.0)).observe(1.5)
        snapshot = registry.snapshot()
        snapshot[0]["edges"] = [3.0, 4.0]
        other = MetricRegistry()
        other.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError, match="edge mismatch"):
            other.merge_snapshot(snapshot)

    def test_cache_stats_merge_into_parent(self, tmp_path):
        parent = CompilationCache(path=tmp_path)
        with caching(parent):
            run_grid(_compile_worker, [32, 32], jobs=2)
        stats = parent.stats
        assert stats.stores >= 1
        assert stats.hits + stats.misses == 2

    def test_workers_share_disk_cache(self, tmp_path):
        parent = CompilationCache(path=tmp_path)
        with caching(parent):
            first = run_grid(_compile_worker, [48], jobs=2)
        warm_parent = CompilationCache(path=tmp_path)
        with caching(warm_parent):
            second = run_grid(_compile_worker, [48], jobs=2)
        assert first == second
        assert warm_parent.stats.hits == 1
        assert warm_parent.stats.misses == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_cache_means_no_cache_in_cells(self, jobs):
        # With no cache installed (as under --no-cache) a cell must not
        # build one of its own: the serial loop records no cache
        # activity, so a parallel grid records none either.
        from repro.experiments import fig6

        with collecting() as registry, logging() as runlog:
            fig6.run([64, 128], devices=("ipu",), jobs=jobs)
        counters = [
            e["name"]
            for e in registry.snapshot()
            if e["name"].startswith("cache.")
        ]
        events = [e.event for e in runlog.events if e.event.startswith("cache.")]
        assert counters == []
        assert events == []

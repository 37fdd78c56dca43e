"""Replica pools: memory-derived sizing is the paper's serving claim."""

import pytest

from repro.cache import CompilationCache, caching
from repro.serve.replica import SERVE_METHODS, build_model, build_pool

DIM = 256
BATCH = 8


class TestPoolSizing:
    def test_pool_size_is_budget_over_footprint(self):
        pool = build_pool("butterfly", DIM, BATCH, budget_bytes=4 * 2**20)
        assert pool.n_replicas == int(4 * 2**20 // pool.replica_bytes)
        assert pool.n_replicas >= 1

    def test_butterfly_outnumbers_dense_at_equal_budget(self):
        budget = 16 * 2**20
        dense = build_pool("dense", DIM, BATCH, budget)
        butterfly = build_pool("butterfly", DIM, BATCH, budget)
        pixelfly = build_pool("pixelfly", DIM, BATCH, budget)
        assert butterfly.replica_bytes < dense.replica_bytes
        assert pixelfly.replica_bytes < dense.replica_bytes
        assert butterfly.n_replicas > dense.n_replicas
        assert pixelfly.n_replicas > dense.n_replicas

    def test_max_replicas_caps_the_pool(self):
        pool = build_pool(
            "butterfly", DIM, BATCH, 64 * 2**20, max_replicas=5
        )
        assert pool.n_replicas == 5

    def test_undersized_budget_raises(self):
        with pytest.raises(ValueError, match="budget"):
            build_pool("dense", DIM, BATCH, budget_bytes=1024.0)

    def test_service_time_positive_and_deterministic(self):
        a = build_pool("pixelfly", DIM, BATCH, 8 * 2**20)
        b = build_pool("pixelfly", DIM, BATCH, 8 * 2**20)
        assert a.service_s > 0
        assert a.service_s == b.service_s
        assert a.replica_bytes == b.replica_bytes

    def test_pool_compiles_through_the_ambient_cache(self):
        cache = CompilationCache()
        with caching(cache):
            build_pool("dense", DIM, BATCH, 16 * 2**20)
            first = (cache.stats.hits, cache.stats.misses)
            build_pool("dense", DIM, BATCH, 16 * 2**20)
        assert first[1] >= 1
        assert cache.stats.hits > first[0]


class TestReplicaState:
    def test_utilisation_accounts_for_death(self):
        pool = build_pool("butterfly", DIM, BATCH, 4 * 2**20)
        replica = pool.replicas[0]
        replica.busy_s = 1.0
        assert replica.utilisation(4.0) == pytest.approx(0.25)
        replica.died_at_s = 2.0
        assert replica.utilisation(4.0) == pytest.approx(0.5)


class TestModels:
    @pytest.mark.parametrize("method", SERVE_METHODS)
    def test_build_model_runs(self, method):
        import numpy as np

        from repro.nn.tensor import Tensor

        model = build_model(method, DIM, depth=2)
        x = np.random.default_rng(0).standard_normal((4, DIM))
        assert model(Tensor(x)).data.shape == (4, DIM)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown serve method"):
            build_model("sparse-ish", DIM)

"""Degraded-tile recompilation: folding, memory accounting, genuine OOM."""

import numpy as np
import pytest

from repro.experiments.chaos import max_dead_tiles
from repro.ipu.compiler import (
    IPUOutOfMemoryError,
    _tile_fold_map,
    compile_graph,
)
from repro.ipu.machine import GC200
from repro.ipu.poptorch import lower_model
from repro.experiments.config import shl_model

from tests.faults.test_executor_faults import build_pipeline


class TestTileFoldMap:
    def test_identity_free_of_excluded(self):
        fold = _tile_fold_map(8, frozenset({2, 5}))
        assert fold.shape == (8,)
        assert not set(fold.tolist()) & {2, 5}
        assert set(fold.tolist()) <= set(range(8)) - {2, 5}

    def test_round_robin_balance(self):
        fold = _tile_fold_map(100, frozenset({0}))
        counts = np.bincount(fold, minlength=100)
        assert counts[0] == 0
        # 100 logical tiles over 99 survivors: loads differ by <= 1.
        assert counts[1:].min() >= 1
        assert counts[1:].max() <= 2


class TestDegradedCompile:
    def test_healthy_compile_has_no_map(self):
        compiled = compile_graph(build_pipeline(), GC200)
        assert compiled.tile_map is None
        assert compiled.excluded_tiles == frozenset()

    def test_excluded_tiles_carry_no_memory(self):
        compiled = compile_graph(
            build_pipeline(), GC200, exclude_tiles={1, 3}
        )
        assert compiled.excluded_tiles == frozenset({1, 3})
        assert compiled.memory.per_tile_bytes[1] == 0.0
        assert compiled.memory.per_tile_bytes[3] == 0.0
        assert compiled.tile_map[1] not in (1, 3)

    def test_fold_conserves_total_memory(self):
        graph = build_pipeline()
        healthy = compile_graph(graph, GC200)
        degraded = compile_graph(graph, GC200, exclude_tiles={0, 1, 2})
        assert degraded.memory.total_bytes == pytest.approx(
            healthy.memory.total_bytes
        )
        assert (
            degraded.memory.peak_tile_bytes
            >= healthy.memory.peak_tile_bytes
        )

    def test_validation(self):
        graph = build_pipeline()
        with pytest.raises(ValueError, match="out of range"):
            compile_graph(graph, GC200, exclude_tiles={GC200.n_tiles})
        with pytest.raises(ValueError, match="cannot exclude all"):
            compile_graph(
                graph, GC200, exclude_tiles=set(range(GC200.n_tiles))
            )

    def test_oom_only_when_fold_genuinely_overflows(self):
        """Shrinking to very few survivors concentrates a real model's
        memory until it overflows — and the error says it was degraded."""
        model = shl_model("Baseline", dim=1024)
        graph, _ = lower_model(model, GC200, batch=50, in_features=1024)
        compile_graph(graph, GC200)  # healthy: fits
        survivors = 2
        excl = set(range(GC200.n_tiles - survivors))
        with pytest.raises(IPUOutOfMemoryError, match="tiles excluded"):
            compile_graph(graph, GC200, exclude_tiles=excl)


class TestMaxDeadTiles:
    def test_compressed_beats_dense(self):
        """The PR's quantitative claim at test scale: butterfly survives
        strictly more dead tiles than the dense baseline."""
        results = {}
        for method in ("Baseline", "Butterfly"):
            model = shl_model(method, dim=512)
            graph, _ = lower_model(model, GC200, batch=16, in_features=512)
            results[method] = max_dead_tiles(graph, GC200, seed=0)
        assert 0 < results["Baseline"] < GC200.n_tiles
        assert results["Butterfly"] > results["Baseline"]

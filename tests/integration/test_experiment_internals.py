"""Coverage for experiment internals and mask-algebra properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pixelfly import block_butterfly_mask, flat_butterfly_mask
from repro.experiments import fig6, generations, table4
from repro.ipu.machine import GC2, GC200

# experiment-scale grids: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


class TestFig6Internals:
    def test_render_memory_limits_from_precomputed(self, monkeypatch):
        from repro.experiments.fig6 import MemoryLimitRow, render_memory_limits

        rows = [
            MemoryLimitRow("gpu", 1024, 4096, 4096),
            MemoryLimitRow("ipu", 512, 1024, 1024),
        ]
        monkeypatch.setattr(fig6, "memory_limits", lambda: rows)
        text = render_memory_limits()
        assert "linear max N" in text
        assert "4,096" in text or "4096" in text

    def test_fig6_row_speedup_properties(self):
        row = fig6.Fig6Row(
            device="ipu", n=128, linear_s=2.0, butterfly_s=1.0, pixelfly_s=4.0
        )
        assert row.butterfly_speedup == 2.0
        assert row.pixelfly_speedup == 0.5

    def test_default_sizes_are_powers_of_two(self):
        for n in fig6.default_sizes():
            assert n & (n - 1) == 0


class TestGenerationsInternals:
    def test_largest_fitting_matmul_monotone_in_memory(self, monkeypatch):
        monkeypatch.setattr(generations, "MAX_EXP", 12)
        small = generations.largest_fitting_matmul(GC2)
        large = generations.largest_fitting_matmul(GC200)
        assert large >= small
        assert small > 0

    def test_largest_fitting_matmul_pinned(self):
        # The generations table's last column; perf/golden.json covers
        # the GC2 row only.
        assert generations.largest_fitting_matmul(GC2) == 2048
        assert generations.largest_fitting_matmul(GC200) == 4096

    def test_generation_row_ratio(self):
        rows = generations.run(specs=(GC200,))
        assert rows[0].butterfly_vs_linear == pytest.approx(
            rows[0].butterfly_step_s / rows[0].linear_step_s
        )


class TestTable4Internals:
    def test_row_compression(self):
        row = table4.Table4Row(
            method="x",
            n_params=100,
            accuracy=0.5,
            gpu_tc_time_s=1.0,
            gpu_notc_time_s=1.0,
            ipu_time_s=1.0,
        )
        assert row.compression(1000) == pytest.approx(0.9)


pow2 = st.sampled_from([8, 16, 32, 64, 128])


class TestMaskAlgebraProperties:
    @settings(max_examples=25, deadline=None)
    @given(pow2)
    def test_flat_mask_symmetric(self, n):
        mask = flat_butterfly_mask(n)
        np.testing.assert_array_equal(mask, mask.T)

    @settings(max_examples=25, deadline=None)
    @given(pow2, st.integers(0, 5))
    def test_level_masks_nested(self, n, levels):
        import math

        log_n = int(math.log2(n))
        k = min(levels, log_n)
        smaller = flat_butterfly_mask(n, n_levels=k)
        larger = flat_butterfly_mask(n, n_levels=min(k + 1, log_n))
        # Every entry of the k-level mask appears in the (k+1)-level mask.
        assert bool(np.all(larger | ~smaller))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([32, 64, 128]), st.sampled_from([4, 8, 16]))
    def test_block_mask_diagonal_complete(self, n, bs):
        mask = block_butterfly_mask(n, bs)
        assert mask.diagonal().all()

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([64, 128]), st.sampled_from([8, 16]))
    def test_block_mask_rows_balanced(self, n, bs):
        # The butterfly pattern is a union of permutation supports plus the
        # diagonal: every block-row has the same number of active blocks.
        mask = block_butterfly_mask(n, bs)
        row_counts = mask.sum(axis=1)
        assert len(set(row_counts.tolist())) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([64, 128]), st.sampled_from([2, 4, 8]))
    def test_butterfly_size_two_is_tridiagonal_band(self, n, bs):
        mask = block_butterfly_mask(n, bs, butterfly_size=2)
        nb = n // bs
        idx = np.arange(nb)
        expected = (idx[:, None] ^ idx[None, :]) <= 1
        np.testing.assert_array_equal(mask, expected)

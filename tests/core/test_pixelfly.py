"""Tests for pixelfly masks and block-sparse numerics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pixelfly import (
    block_butterfly_mask,
    block_sparse_multiply,
    block_sparse_multiply_backward,
    blocks_to_dense,
    flat_butterfly_mask,
    pixelfly_param_count,
    pixelfly_pattern,
)
from tests.conftest import numeric_gradient


class TestFlatMask:
    def test_support_is_xor_powers_of_two(self):
        n = 16
        mask = flat_butterfly_mask(n)
        idx = np.arange(n)
        diff = idx[:, None] ^ idx[None, :]
        expected = (diff == 0)
        for level in range(4):
            expected |= diff == (1 << level)
        np.testing.assert_array_equal(mask, expected)

    def test_symmetric(self):
        mask = flat_butterfly_mask(32)
        np.testing.assert_array_equal(mask, mask.T)

    def test_diagonal_always_set(self):
        assert flat_butterfly_mask(64).diagonal().all()

    def test_levels_zero_is_diagonal(self):
        np.testing.assert_array_equal(
            flat_butterfly_mask(8, n_levels=0), np.eye(8, dtype=bool)
        )

    def test_nnz_count(self):
        # diagonal + log2(n) bands of n entries each.
        n = 64
        assert flat_butterfly_mask(n).sum() == n * (1 + 6)

    def test_levels_monotone(self):
        prev = 0
        for levels in range(0, 6):
            count = flat_butterfly_mask(32, n_levels=levels).sum()
            assert count >= prev
            prev = count

    def test_invalid_levels(self):
        with pytest.raises(ValueError, match="n_levels"):
            flat_butterfly_mask(8, n_levels=9)


class TestBlockMask:
    def test_grid_shape(self):
        assert block_butterfly_mask(64, 8).shape == (8, 8)

    def test_block_size_exceeding_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            block_butterfly_mask(16, 32)

    def test_full_butterfly_matches_flat_mask(self):
        nb = 16
        np.testing.assert_array_equal(
            block_butterfly_mask(64, 4),  # nb = 16, full butterfly
            flat_butterfly_mask(nb),
        )

    def test_butterfly_size_monotone_density(self):
        prev = 0
        for bf in [2, 4, 8, 16]:
            count = block_butterfly_mask(128, 8, butterfly_size=bf).sum()
            assert count >= prev
            prev = count

    def test_wrapping_strides_do_not_crash(self):
        # butterfly_size larger than the grid wraps modulo nb.
        mask = block_butterfly_mask(64, 16, butterfly_size=128)
        assert mask.shape == (4, 4)
        assert mask.diagonal().all()


class TestPattern:
    def test_param_counts(self):
        pat = pixelfly_pattern(1024, block_size=32, rank=96)
        # Table 4's exact pixelfly decode: 192 blocks of 32x32 + rank 96.
        assert pat.n_blocks == 192
        assert pat.sparse_params() == 196608
        assert pat.lowrank_params() == 196608
        assert pat.total_params() == 393216

    def test_param_count_helper(self):
        assert pixelfly_param_count(1024, 32, None, 96) == 393216

    def test_param_count_helper_equals_the_pattern(self):
        # Every power-of-two n to 4096 and block size, butterfly sizes
        # past the grid (their strides wrap), up to 512 block-rows.
        cases = 0
        for n in (1 << e for e in range(13)):
            for bs in (1 << k for k in range(n.bit_length())):
                nb = n // bs
                if nb > 512:
                    continue
                for bf in [None] + [1 << j for j in range(nb.bit_length() + 2)]:
                    for rank in (0, 1, 3):
                        want = pixelfly_pattern(n, bs, bf, rank).total_params()
                        assert pixelfly_param_count(n, bs, bf, rank) == want, (
                            n, bs, bf, rank
                        )
                        cases += 1
        assert cases == 1920

    @pytest.mark.parametrize(
        "args",
        [(48, 8, None, 1), (64, 6, None, 1), (64, 128, None, 1),
         (64, 8, 3, 1), (64, 8, 0, 1), (64, 8, None, -1), (0, 1, None, 0)],
    )
    def test_param_count_helper_rejects_what_the_pattern_rejects(self, args):
        with pytest.raises(ValueError) as want:
            pixelfly_pattern(*args)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            pixelfly_param_count(*args)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            pixelfly_pattern(64, 8, rank=-1)

    def test_rows_cols_match_mask(self):
        pat = pixelfly_pattern(64, block_size=8)
        mask = np.zeros_like(pat.block_mask)
        mask[pat.block_rows, pat.block_cols] = True
        np.testing.assert_array_equal(mask, pat.block_mask)


class TestBlockSparseNumerics:
    def _setup(self, rng, n=64, bs=8, bf=None):
        pat = pixelfly_pattern(n, block_size=bs, butterfly_size=bf, rank=0)
        blocks = rng.standard_normal((pat.n_blocks, bs, bs))
        x = rng.standard_normal((5, n))
        return pat, blocks, x

    def test_matches_dense_scatter(self, rng):
        pat, blocks, x = self._setup(rng)
        dense = blocks_to_dense(blocks, pat)
        np.testing.assert_allclose(
            block_sparse_multiply(blocks, pat, x), x @ dense.T, atol=1e-10
        )

    def test_1d_input(self, rng):
        pat, blocks, _ = self._setup(rng)
        v = rng.standard_normal(64)
        out = block_sparse_multiply(blocks, pat, v)
        assert out.shape == (64,)

    def test_wrong_block_shape(self, rng):
        pat, blocks, x = self._setup(rng)
        with pytest.raises(ValueError, match="blocks"):
            block_sparse_multiply(blocks[:-1], pat, x)

    def test_wrong_feature_count(self, rng):
        pat, blocks, _ = self._setup(rng)
        with pytest.raises(ValueError, match="features"):
            block_sparse_multiply(blocks, pat, rng.standard_normal((2, 32)))

    def test_backward_blocks(self, rng):
        pat, blocks, x = self._setup(rng, n=16, bs=4)
        g = rng.standard_normal((5, 16))
        grad_b, _ = block_sparse_multiply_backward(blocks, pat, x, g)
        num = numeric_gradient(
            lambda b: float((block_sparse_multiply(b, pat, x) * g).sum()),
            blocks,
        )
        np.testing.assert_allclose(grad_b, num, atol=1e-5)

    def test_backward_x(self, rng):
        pat, blocks, x = self._setup(rng, n=16, bs=4)
        g = rng.standard_normal((5, 16))
        _, grad_x = block_sparse_multiply_backward(blocks, pat, x, g)
        num = numeric_gradient(
            lambda a: float((block_sparse_multiply(blocks, pat, a) * g).sum()),
            x,
        )
        np.testing.assert_allclose(grad_x, num, atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([16, 32, 64]),
        st.sampled_from([4, 8]),
        st.integers(0, 2**31 - 1),
    )
    def test_property_matches_dense(self, n, bs, seed):
        rng = np.random.default_rng(seed)
        pat = pixelfly_pattern(n, block_size=bs, rank=0)
        blocks = rng.standard_normal((pat.n_blocks, bs, bs))
        x = rng.standard_normal((2, n))
        np.testing.assert_allclose(
            block_sparse_multiply(blocks, pat, x),
            x @ blocks_to_dense(blocks, pat).T,
            atol=1e-9,
        )

    def test_dense_expansion_respects_mask(self, rng):
        pat, blocks, _ = self._setup(rng)
        dense = blocks_to_dense(blocks, pat)
        bs = pat.block_size
        nb = pat.n // bs
        grid = dense.reshape(nb, bs, nb, bs)
        for i in range(nb):
            for j in range(nb):
                if not pat.block_mask[i, j]:
                    assert not grid[i, :, j, :].any()

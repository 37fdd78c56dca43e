"""Tests for the butterfly factorization core."""

import numpy as np
import pytest

from repro.core.butterfly import (
    butterfly_factor_dense,
    butterfly_multiply,
    butterfly_multiply_backward,
    butterfly_multiply_with_intermediates,
    butterfly_param_count,
    butterfly_to_dense,
    fft_twiddle,
    identity_twiddle,
    level_stride,
    orthogonal_twiddle,
    random_twiddle,
)
from repro.core.permutations import bit_reversal_permutation
from tests.conftest import numeric_gradient


class TestTwiddles:
    def test_identity_twiddle_gives_identity(self):
        tw = identity_twiddle(16)
        np.testing.assert_allclose(butterfly_to_dense(tw), np.eye(16))

    def test_param_count(self):
        assert butterfly_param_count(1024) == 20480
        assert random_twiddle(64).size == butterfly_param_count(64)

    def test_param_count_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            butterfly_param_count(100)

    def test_orthogonal_twiddle_is_orthogonal(self):
        dense = butterfly_to_dense(orthogonal_twiddle(32, seed=3))
        np.testing.assert_allclose(dense @ dense.T, np.eye(32), atol=1e-12)

    def test_random_twiddle_deterministic(self):
        np.testing.assert_array_equal(
            random_twiddle(16, seed=5), random_twiddle(16, seed=5)
        )

    def test_random_twiddle_scale_preserves_norm(self, rng):
        tw = random_twiddle(256, seed=0)
        x = rng.standard_normal((64, 256))
        y = butterfly_multiply(tw, x)
        ratio = np.linalg.norm(y) / np.linalg.norm(x)
        assert 0.3 < ratio < 3.0

    def test_level_stride_increasing(self):
        assert [level_stride(i, 4, True) for i in range(4)] == [1, 2, 4, 8]

    def test_level_stride_decreasing(self):
        assert [level_stride(i, 4, False) for i in range(4)] == [8, 4, 2, 1]

    def test_level_stride_bounds(self):
        with pytest.raises(ValueError):
            level_stride(4, 4)


class TestMultiply:
    def test_matches_dense_expansion(self, rng):
        tw = random_twiddle(32, seed=1)
        dense = butterfly_to_dense(tw)
        x = rng.standard_normal((5, 32))
        np.testing.assert_allclose(
            butterfly_multiply(tw, x), x @ dense.T, atol=1e-10
        )

    def test_decreasing_stride_matches_dense(self, rng):
        tw = random_twiddle(16, seed=2)
        dense = butterfly_to_dense(tw, increasing_stride=False)
        x = rng.standard_normal((3, 16))
        np.testing.assert_allclose(
            butterfly_multiply(tw, x, increasing_stride=False),
            x @ dense.T,
            atol=1e-10,
        )

    def test_1d_input(self, rng):
        tw = random_twiddle(8, seed=3)
        v = rng.standard_normal(8)
        out = butterfly_multiply(tw, v)
        assert out.shape == (8,)
        np.testing.assert_allclose(
            out, butterfly_to_dense(tw) @ v, atol=1e-12
        )

    def test_wrong_feature_count(self, rng):
        tw = random_twiddle(8)
        with pytest.raises(ValueError, match="features"):
            butterfly_multiply(tw, rng.standard_normal((2, 16)))

    def test_invalid_twiddle_shape(self):
        with pytest.raises(ValueError, match="levels"):
            butterfly_multiply(np.zeros((3, 8, 2, 2)), np.zeros((1, 16)))
        with pytest.raises(ValueError, match="shape"):
            butterfly_multiply(np.zeros((3, 8, 2)), np.zeros((1, 16)))

    def test_linearity(self, rng):
        tw = random_twiddle(16, seed=4)
        x = rng.standard_normal((2, 16))
        y = rng.standard_normal((2, 16))
        np.testing.assert_allclose(
            butterfly_multiply(tw, 2 * x + 3 * y),
            2 * butterfly_multiply(tw, x) + 3 * butterfly_multiply(tw, y),
            atol=1e-10,
        )

    def test_identity_multiply(self, rng):
        x = rng.standard_normal((4, 32))
        np.testing.assert_allclose(
            butterfly_multiply(identity_twiddle(32), x), x
        )

    def test_zero_level_butterfly_is_identity(self, rng):
        # n = 1: no levels, so every operation is the identity.
        tw = identity_twiddle(1)
        assert tw.shape == (0, 0, 2, 2)
        x = rng.standard_normal((3, 1))
        np.testing.assert_array_equal(butterfly_multiply(tw, x), x)
        y, inputs = butterfly_multiply_with_intermediates(tw, x)
        np.testing.assert_array_equal(y, x)
        grad_t, grad_x = butterfly_multiply_backward(tw, inputs, 2 * x)
        assert grad_t.shape == tw.shape
        np.testing.assert_array_equal(grad_x, 2 * x)
        np.testing.assert_array_equal(butterfly_to_dense(tw), np.eye(1))


class TestFFT:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_fft_twiddle_reproduces_dft(self, n, rng):
        tw = fft_twiddle(n)
        perm = bit_reversal_permutation(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            butterfly_multiply(tw, x[perm]), np.fft.fft(x), atol=1e-9
        )

    def test_fft_dense_matches_dft_matrix(self):
        # Eq. 3: T = B P, the butterfly product after the bit-reversal
        # permutation matrix P (P @ x == x[perm]), is the DFT matrix.
        n = 16
        perm_matrix = np.eye(n)[bit_reversal_permutation(n)]
        dense = butterfly_to_dense(fft_twiddle(n)) @ perm_matrix
        dft = np.fft.fft(np.eye(n), axis=0)
        np.testing.assert_allclose(dense, dft, atol=1e-9)


class TestBackward:
    def test_grad_twiddle_matches_finite_difference(self, rng):
        tw = random_twiddle(8, seed=6)
        x = rng.standard_normal((4, 8))
        g = rng.standard_normal((4, 8))
        _, inputs = butterfly_multiply_with_intermediates(tw, x)
        grad_t, _ = butterfly_multiply_backward(tw, inputs, g)
        num = numeric_gradient(
            lambda t: float((butterfly_multiply(t, x) * g).sum()), tw
        )
        np.testing.assert_allclose(grad_t, num, atol=1e-5)

    def test_grad_x_matches_finite_difference(self, rng):
        tw = random_twiddle(8, seed=7)
        x = rng.standard_normal((3, 8))
        g = rng.standard_normal((3, 8))
        _, inputs = butterfly_multiply_with_intermediates(tw, x)
        _, grad_x = butterfly_multiply_backward(tw, inputs, g)
        num = numeric_gradient(
            lambda a: float((butterfly_multiply(tw, a) * g).sum()), x
        )
        np.testing.assert_allclose(grad_x, num, atol=1e-5)

    def test_backward_decreasing_stride(self, rng):
        tw = random_twiddle(8, seed=8)
        x = rng.standard_normal((2, 8))
        g = rng.standard_normal((2, 8))
        _, inputs = butterfly_multiply_with_intermediates(
            tw, x, increasing_stride=False
        )
        grad_t, _ = butterfly_multiply_backward(
            tw, inputs, g, increasing_stride=False
        )
        num = numeric_gradient(
            lambda t: float(
                (butterfly_multiply(t, x, increasing_stride=False) * g).sum()
            ),
            tw,
        )
        np.testing.assert_allclose(grad_t, num, atol=1e-5)


def _dense_factors(twiddle: np.ndarray) -> list[np.ndarray]:
    """Dense expansion of each factor, in application order."""
    log_n = twiddle.shape[0]
    return [
        butterfly_factor_dense(twiddle[level], level_stride(level, log_n))
        for level in range(log_n)
    ]


class TestFactorization:
    def test_factors_product_equals_dense(self):
        tw = random_twiddle(16, seed=1)
        product = np.eye(16)
        for factor in _dense_factors(tw):
            product = factor @ product
        np.testing.assert_allclose(product, butterfly_to_dense(tw), atol=1e-12)

    def test_each_factor_has_2n_nonzeros(self):
        factors = _dense_factors(random_twiddle(32, seed=2))
        assert len(factors) == 5
        for factor in factors:
            assert np.count_nonzero(factor) <= 2 * 32

    def test_factor_dense_invalid_stride(self):
        tw = random_twiddle(8)
        with pytest.raises(ValueError, match="stride"):
            butterfly_factor_dense(tw[0], 8)

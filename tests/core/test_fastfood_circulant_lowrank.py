"""Tests for the Table 4 baseline factorizations (fastfood/circulant/low-rank)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circulant import (
    circulant_multiply,
    circulant_multiply_backward,
    circulant_param_count,
    circulant_to_dense,
)
from repro.core.fastfood import (
    FastfoodTransform,
    fastfood_param_count,
    fwht,
    fwht_matrix,
)
from repro.core.lowrank import lowrank_param_count, lowrank_to_dense
from tests.conftest import numeric_gradient

pow2 = st.sampled_from([2, 4, 8, 16, 32, 64])


class TestFWHT:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128])
    def test_matches_scipy_hadamard(self, n):
        np.testing.assert_allclose(
            fwht_matrix(n), scipy.linalg.hadamard(n), atol=1e-12
        )

    def test_unnormalised_double_application(self, rng):
        x = rng.standard_normal((3, 16))
        np.testing.assert_allclose(fwht(fwht(x)), 16 * x, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(pow2, st.integers(0, 2**31 - 1))
    def test_normalized_is_involution(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, n))
        np.testing.assert_allclose(
            fwht(fwht(x, normalized=True), normalized=True), x, atol=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(pow2, st.integers(0, 2**31 - 1))
    def test_normalized_preserves_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            np.linalg.norm(fwht(x, normalized=True)),
            np.linalg.norm(x),
            rtol=1e-9,
        )

    def test_batch_shapes_preserved(self, rng):
        x = rng.standard_normal((2, 3, 8))
        assert fwht(x).shape == (2, 3, 8)

    def test_rejects_non_pow2(self, rng):
        with pytest.raises(ValueError):
            fwht(rng.standard_normal(12))

    def test_linearity(self, rng):
        x = rng.standard_normal(16)
        y = rng.standard_normal(16)
        np.testing.assert_allclose(
            fwht(2 * x - y), 2 * fwht(x) - fwht(y), atol=1e-10
        )


def random_fastfood(n, seed):
    """Le et al.'s initialisation: ``B`` Rademacher, ``G`` Gaussian, ``S``
    chi-distributed row norms over ``||G||``, ``P`` uniform."""
    rng = np.random.default_rng(seed)
    b = rng.choice([-1.0, 1.0], size=n)
    g = rng.standard_normal(n)
    s = np.sqrt(rng.chisquare(df=n, size=n)) / np.sqrt((g**2).sum())
    return FastfoodTransform(s=s, g=g, b=b, perm=rng.permutation(n))


class TestFastfood:
    def test_param_count(self):
        assert fastfood_param_count(1024) == 3072

    def test_multiply_matches_dense(self, rng):
        ff = random_fastfood(32, seed=1)
        x = rng.standard_normal((4, 32))
        np.testing.assert_allclose(
            ff(x), x @ ff.to_dense().T, atol=1e-10
        )

    def test_explicit_composition(self, rng):
        ff = random_fastfood(16, seed=2)
        x = rng.standard_normal(16)
        h = fwht_matrix(16, normalized=True)
        p = np.zeros((16, 16))
        p[np.arange(16), ff.perm] = 1
        manual = np.diag(ff.s) @ h @ np.diag(ff.g) @ p @ h @ np.diag(ff.b)
        np.testing.assert_allclose(ff(x), manual @ x, atol=1e-10)

    def test_wrong_feature_count(self, rng):
        ff = random_fastfood(16, seed=0)
        with pytest.raises(ValueError, match="features"):
            ff(rng.standard_normal(8))

    def test_component_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            FastfoodTransform(
                s=np.ones(8), g=np.ones(8), b=np.ones(8), perm=np.arange(4)
            )

    def test_output_scale_is_reasonable(self, rng):
        ff = random_fastfood(256, seed=4)
        x = rng.standard_normal((50, 256))
        ratio = np.linalg.norm(ff(x)) / np.linalg.norm(x)
        assert 0.3 < ratio < 3.0


class TestCirculant:
    def test_param_count(self):
        assert circulant_param_count(1024) == 1024
        with pytest.raises(ValueError):
            circulant_param_count(0)

    def test_matches_dense(self, rng):
        c = rng.standard_normal(12)
        x = rng.standard_normal((3, 12))
        np.testing.assert_allclose(
            circulant_multiply(c, x), x @ circulant_to_dense(c).T, atol=1e-10
        )

    def test_matches_scipy_circulant(self, rng):
        c = rng.standard_normal(9)
        np.testing.assert_allclose(
            circulant_to_dense(c), scipy.linalg.circulant(c), atol=1e-12
        )

    def test_non_power_of_two_size(self, rng):
        c = rng.standard_normal(7)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(
            circulant_multiply(c, x), circulant_to_dense(c) @ x, atol=1e-10
        )

    def test_identity_circulant(self, rng):
        c = np.zeros(8)
        c[0] = 1.0
        x = rng.standard_normal((2, 8))
        np.testing.assert_allclose(circulant_multiply(c, x), x, atol=1e-12)

    def test_shift_circulant(self, rng):
        c = np.zeros(8)
        c[1] = 1.0  # circular shift by one
        x = rng.standard_normal(8)
        np.testing.assert_allclose(
            circulant_multiply(c, x), np.roll(x, 1), atol=1e-12
        )

    def test_backward_matches_finite_difference(self, rng):
        c = rng.standard_normal(6)
        x = rng.standard_normal((3, 6))
        g = rng.standard_normal((3, 6))
        grad_c, grad_x = circulant_multiply_backward(c, x, g)
        num_c = numeric_gradient(
            lambda cc: float((circulant_multiply(cc, x) * g).sum()), c
        )
        num_x = numeric_gradient(
            lambda a: float((circulant_multiply(c, a) * g).sum()), x
        )
        np.testing.assert_allclose(grad_c, num_c, atol=1e-6)
        np.testing.assert_allclose(grad_x, num_x, atol=1e-6)

    def test_rejects_2d_c(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            circulant_multiply(rng.standard_normal((2, 3)), rng.standard_normal(3))

    def test_feature_mismatch(self, rng):
        with pytest.raises(ValueError, match="features"):
            circulant_multiply(rng.standard_normal(8), rng.standard_normal(4))


class TestLowRank:
    def test_param_count(self):
        assert lowrank_param_count(1024, 1) == 2048
        assert lowrank_param_count(100, 3, m=50) == 450

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            lowrank_param_count(10, -1)

    def test_rank_of_expansion(self, rng):
        u = rng.standard_normal((12, 2))
        v = rng.standard_normal((12, 2))
        assert np.linalg.matrix_rank(lowrank_to_dense(u, v)) == 2

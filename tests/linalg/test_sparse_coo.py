"""Unit tests for the from-scratch COO format."""

import numpy as np
import pytest

from repro.linalg import COOMatrix, CSRMatrix, random_sparse


def dense_fixture(rng, m=11, n=9, density=0.35):
    a = rng.standard_normal((m, n))
    a[rng.random((m, n)) > density] = 0.0
    return a


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        a = dense_fixture(rng)
        np.testing.assert_array_equal(COOMatrix.from_dense(a).to_dense(), a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            COOMatrix(
                row=np.array([0]),
                col=np.array([0, 1]),
                data=np.array([1.0]),
                shape=(2, 2),
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            COOMatrix(
                row=np.array([5]),
                col=np.array([0]),
                data=np.array([1.0]),
                shape=(2, 2),
            )

    def test_from_dense_rejects_non_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            COOMatrix.from_dense(rng.standard_normal(4))


class TestDuplicates:
    def test_to_dense_accumulates_duplicates(self):
        coo = COOMatrix(
            row=np.array([0, 0]),
            col=np.array([0, 0]),
            data=np.array([1.0, 1.0]),
            shape=(1, 1),
        )
        assert coo.to_dense()[0, 0] == 2.0


class TestMatmul:
    def test_matmul_matches_dense(self, rng):
        a = dense_fixture(rng)
        b = rng.standard_normal((a.shape[1], 5))
        coo = COOMatrix.from_dense(a)
        np.testing.assert_allclose(coo @ b, a @ b, atol=1e-12)

    def test_matmul_vector(self, rng):
        a = dense_fixture(rng)
        v = rng.standard_normal(a.shape[1])
        np.testing.assert_allclose(
            COOMatrix.from_dense(a) @ v, a @ v, atol=1e-12
        )

    def test_matmul_dimension_mismatch(self, rng):
        coo = COOMatrix.from_dense(dense_fixture(rng))
        with pytest.raises(ValueError, match="mismatch"):
            coo @ rng.standard_normal((2, 2))

    def test_matmul_agrees_with_csr(self, rng):
        a = dense_fixture(rng)
        b = rng.standard_normal((a.shape[1], 3))
        coo = COOMatrix.from_dense(a)
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_allclose(coo @ b, csr @ b, atol=1e-12)


class TestConversions:
    def test_to_csr(self, rng):
        a = dense_fixture(rng)
        np.testing.assert_array_equal(
            COOMatrix.from_dense(a).to_csr().to_dense(), a
        )

    def test_transpose(self, rng):
        a = dense_fixture(rng)
        np.testing.assert_array_equal(
            COOMatrix.from_dense(a).transpose().to_dense(), a.T
        )

    def test_storage_bytes(self, rng):
        coo = COOMatrix.from_dense(dense_fixture(rng))
        # Default: the stored dtypes (float64 data + two int64 indices).
        assert coo.storage_bytes() == coo.nnz * (8 + 2 * 8)
        # Device simulators pass the widths they model (fp32 + int32).
        assert (
            coo.storage_bytes(value_bytes=4, index_bytes=4)
            == coo.nnz * 12
        )

    def test_random_sparse_coo(self):
        coo = random_sparse(20, 30, 0.1, seed=1, fmt="coo")
        assert isinstance(coo, COOMatrix)
        assert coo.nnz == 60

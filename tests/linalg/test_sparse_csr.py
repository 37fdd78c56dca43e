"""Unit tests for the from-scratch CSR format."""

import numpy as np
import pytest

from repro.linalg import CSRMatrix, random_sparse, sparsity


def dense_fixture(rng, m=13, n=17, density=0.3):
    a = rng.standard_normal((m, n))
    a[rng.random((m, n)) > density] = 0.0
    return a


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        a = dense_fixture(rng)
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_array_equal(csr.to_dense(), a)

    def test_from_dense_rejects_non_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense(rng.standard_normal(5))

    def test_nnz_counts_nonzeros(self, rng):
        a = dense_fixture(rng)
        assert CSRMatrix.from_dense(a).nnz == np.count_nonzero(a)

    def test_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((4, 5)))
        assert csr.nnz == 0
        np.testing.assert_array_equal(csr.to_dense(), np.zeros((4, 5)))

    def test_indices_sorted_within_rows(self, rng):
        csr = CSRMatrix.from_dense(dense_fixture(rng))
        for i in range(csr.shape[0]):
            row = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                indptr=np.array([0, 2]),
                indices=np.array([0]),
                data=np.array([1.0]),
                shape=(1, 3),
            )

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix(
                indptr=np.array([0, 2, 1, 3]),
                indices=np.array([0, 1, 2]),
                data=np.ones(3),
                shape=(3, 3),
            )

    def test_out_of_range_column_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix(
                indptr=np.array([0, 1]),
                indices=np.array([5]),
                data=np.array([1.0]),
                shape=(1, 3),
            )


class TestMatmul:
    def test_matmul_matches_dense_matrix(self, rng):
        a = dense_fixture(rng)
        b = rng.standard_normal((a.shape[1], 7))
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_allclose(csr @ b, a @ b, atol=1e-12)

    def test_matmul_vector(self, rng):
        a = dense_fixture(rng)
        v = rng.standard_normal(a.shape[1])
        csr = CSRMatrix.from_dense(a)
        out = csr @ v
        assert out.shape == (a.shape[0],)
        np.testing.assert_allclose(out, a @ v, atol=1e-12)

    def test_matmul_dimension_mismatch(self, rng):
        csr = CSRMatrix.from_dense(dense_fixture(rng))
        with pytest.raises(ValueError, match="mismatch"):
            csr @ rng.standard_normal((3, 3))

    def test_matmul_with_empty_rows(self, rng):
        a = dense_fixture(rng)
        a[3] = 0.0
        b = rng.standard_normal((a.shape[1], 4))
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_allclose(csr @ b, a @ b, atol=1e-12)

    def test_matmul_all_zero(self):
        csr = CSRMatrix.from_dense(np.zeros((4, 6)))
        b = np.ones((6, 2))
        np.testing.assert_array_equal(csr @ b, np.zeros((4, 2)))

    def test_matches_scipy(self, rng):
        import scipy.sparse as sp

        a = dense_fixture(rng, 20, 25, 0.2)
        b = rng.standard_normal((25, 9))
        ours = CSRMatrix.from_dense(a) @ b
        theirs = sp.csr_matrix(a) @ b
        np.testing.assert_allclose(ours, theirs, atol=1e-12)


class TestOperations:
    def test_transpose(self, rng):
        a = dense_fixture(rng)
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_array_equal(csr.transpose().to_dense(), a.T)

    def test_to_coo_roundtrip(self, rng):
        a = dense_fixture(rng)
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_array_equal(csr.to_coo().to_dense(), a)

    def test_row_nnz(self, rng):
        a = dense_fixture(rng)
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_array_equal(
            csr.row_nnz(), (a != 0).sum(axis=1)
        )

    def test_storage_bytes(self, rng):
        csr = CSRMatrix.from_dense(dense_fixture(rng))
        # Default: the stored dtypes (float64 data + int64 indices).
        expected = csr.nnz * (8 + 8) + (csr.shape[0] + 1) * 8
        assert csr.storage_bytes() == expected
        # Device simulators pass the widths they model (fp32 + int32).
        device = csr.nnz * (4 + 4) + (csr.shape[0] + 1) * 4
        assert (
            csr.storage_bytes(value_bytes=4, index_bytes=4) == device
        )


class TestRandomSparse:
    def test_exact_nnz(self):
        csr = random_sparse(50, 40, 0.1, seed=0)
        assert csr.nnz == round(0.1 * 50 * 40)

    def test_sparsity_function(self):
        csr = random_sparse(50, 40, 0.1, seed=0)
        assert sparsity(csr.to_dense()) == pytest.approx(0.9)

    def test_deterministic(self):
        a = random_sparse(30, 30, 0.2, seed=7)
        b = random_sparse(30, 30, 0.2, seed=7)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_density_bounds_validated(self):
        with pytest.raises(ValueError, match="density"):
            random_sparse(10, 10, 1.5)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            random_sparse(10, 10, 0.5, fmt="bsr")

    def test_full_density(self):
        csr = random_sparse(8, 8, 1.0, seed=0)
        assert csr.nnz == 64

"""From-scratch CSR and COO sparse-matrix formats.

The paper benchmarks sparse x dense matmul through cuSPARSE (GPU) and
popsparse (IPU), in both CSR and COO storage (its Note 2: CSR wins on both
devices).  We implement both formats directly on numpy arrays rather than
wrapping :mod:`scipy.sparse`, because the device simulators need access to
the raw index structure for cost accounting (gathers per row, index bytes
moved), and because the formats themselves are part of the system under test.

The numerics are vectorised: CSR matmul uses ``np.add.reduceat`` over the
row-pointer structure; COO matmul uses ``np.add.at`` scatter-accumulation.
Both are validated against dense ground truth in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import as_rng

__all__ = ["CSRMatrix", "COOMatrix", "random_sparse", "sparsity"]


def sparsity(a: np.ndarray) -> float:
    """Fraction of exactly-zero entries in *a* (1.0 means all zero)."""
    if a.size == 0:
        return 0.0
    return float(np.count_nonzero(a == 0) / a.size)


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed-sparse-row matrix.

    Attributes
    ----------
    indptr:
        ``(m+1,)`` int64 row pointers; row *i* occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``(nnz,)`` int64 column indices, sorted within each row.
    data:
        ``(nnz,)`` values.
    shape:
        ``(m, n)`` logical shape.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise ValueError(
                f"indptr must have shape ({m + 1},), got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have equal length")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("column index out of range")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense array, dropping exact zeros."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected 2-D array, got ndim={a.ndim}")
        rows, cols = np.nonzero(a)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(
            indptr=indptr,
            indices=cols.astype(np.int64),
            data=a[rows, cols].copy(),
            shape=a.shape,
        )

    # -- properties -------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) entries."""
        return int(len(self.data))

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts, shape ``(m,)``."""
        return np.diff(self.indptr)

    def storage_bytes(
        self,
        value_bytes: int | None = None,
        index_bytes: int | None = None,
    ) -> int:
        """Storage footprint of the format (values + indices + indptr).

        Defaults to the widths this object *actually stores* (float64
        values, int64 indices — numpy's natural dtypes), so the default
        answer is honest about host memory.  Device simulators modelling
        narrower on-device formats (e.g. fp32 values with int32 column
        indices, as cuSPARSE/PopSparse use) must pass the widths they
        model explicitly.
        """
        if value_bytes is None:
            value_bytes = int(self.data.itemsize)
        if index_bytes is None:
            index_bytes = int(self.indices.itemsize)
        return (
            self.nnz * (value_bytes + index_bytes)
            + len(self.indptr) * index_bytes
        )

    # -- numerics ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Expand to a dense ``(m, n)`` array."""
        m, n = self.shape
        out = np.zeros((m, n), dtype=self.data.dtype)
        rows = np.repeat(np.arange(m), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def matmul(self, b: np.ndarray) -> np.ndarray:
        """Sparse x dense product ``self @ b`` with vectorised row reduce.

        Gathers the needed rows of *b* once (``b[indices]``), scales by the
        stored values, and reduces contiguous row segments via
        ``np.add.reduceat`` — no Python-level loop over rows.
        """
        b = np.asarray(b)
        m, n = self.shape
        if b.shape[0] != n:
            raise ValueError(f"dimension mismatch: {self.shape} @ {b.shape}")
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        out = np.zeros((m, b.shape[1]), dtype=np.result_type(self.data, b))
        if self.nnz:
            contrib = self.data[:, None] * b[self.indices]
            nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
            if len(nonempty):
                starts = self.indptr[nonempty]
                out[nonempty] = np.add.reduceat(contrib, starts, axis=0)[
                    : len(nonempty)
                ]
        return out[:, 0] if squeeze else out

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        return self.matmul(b)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, re-compressed along the other axis."""
        return self.to_coo().transpose().to_csr()

    def to_coo(self) -> "COOMatrix":
        """Convert to COO (row, col, value) triplets."""
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), self.row_nnz()
        )
        return COOMatrix(
            row=rows,
            col=self.indices.copy(),
            data=self.data.copy(),
            shape=self.shape,
        )


@dataclass(frozen=True)
class COOMatrix:
    """Coordinate-format sparse matrix: parallel (row, col, value) arrays."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if not (len(self.row) == len(self.col) == len(self.data)):
            raise ValueError("row, col, data must have equal length")
        m, n = self.shape
        if len(self.row) and (
            self.row.min() < 0
            or self.row.max() >= m
            or self.col.min() < 0
            or self.col.max() >= n
        ):
            raise ValueError("index out of range")

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense array, dropping exact zeros."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected 2-D array, got ndim={a.ndim}")
        rows, cols = np.nonzero(a)
        return cls(
            row=rows.astype(np.int64),
            col=cols.astype(np.int64),
            data=a[rows, cols].copy(),
            shape=a.shape,
        )

    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted individually)."""
        return int(len(self.data))

    def storage_bytes(
        self,
        value_bytes: int | None = None,
        index_bytes: int | None = None,
    ) -> int:
        """Storage footprint of the format (values + both index arrays).

        As with :meth:`CSRMatrix.storage_bytes`, defaults reflect the
        stored dtypes (float64 values, int64 row/col indices); device
        simulators pass the narrower widths they model.
        """
        if value_bytes is None:
            value_bytes = int(self.data.itemsize)
        if index_bytes is None:
            index_bytes = int(self.row.itemsize)
        return self.nnz * (value_bytes + 2 * index_bytes)

    def to_dense(self) -> np.ndarray:
        """Expand to dense; duplicate entries accumulate."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def to_csr(self) -> CSRMatrix:
        """Convert to CSR; duplicates are preserved as separate entries."""
        order = np.lexsort((self.col, self.row))
        rows = self.row[order]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(
            indptr=indptr,
            indices=self.col[order].astype(np.int64),
            data=self.data[order].copy(),
            shape=self.shape,
        )

    def matmul(self, b: np.ndarray) -> np.ndarray:
        """Sparse x dense product via scatter-accumulation (``np.add.at``)."""
        b = np.asarray(b)
        m, n = self.shape
        if b.shape[0] != n:
            raise ValueError(f"dimension mismatch: {self.shape} @ {b.shape}")
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        out = np.zeros((m, b.shape[1]), dtype=np.result_type(self.data, b))
        np.add.at(out, self.row, self.data[:, None] * b[self.col])
        return out[:, 0] if squeeze else out

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        return self.matmul(b)

    def transpose(self) -> "COOMatrix":
        """Swap rows and columns."""
        return COOMatrix(
            row=self.col.copy(),
            col=self.row.copy(),
            data=self.data.copy(),
            shape=(self.shape[1], self.shape[0]),
        )


def random_sparse(
    m: int,
    n: int,
    density: float,
    seed: int | np.random.Generator | None = 0,
    fmt: str = "csr",
) -> CSRMatrix | COOMatrix:
    """Generate a uniformly random FP32 sparse matrix with exact nnz count.

    ``density`` is the fraction of nonzeros (paper's "99 % sparsity" equals
    ``density=0.01``).  Positions are sampled without replacement so the nnz
    count is exact, which the GFLOP accounting in Table 2 relies on.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = as_rng(seed)
    total = m * n
    nnz = int(round(density * total))
    flat = rng.choice(total, size=nnz, replace=False)
    rows = (flat // n).astype(np.int64)
    cols = (flat % n).astype(np.int64)
    vals = rng.standard_normal(nnz).astype(np.float32)
    # Avoid sampled zeros so nnz stays exact after any from_dense round-trip.
    vals[vals == 0] = 1.0
    coo = COOMatrix(row=rows, col=cols, data=vals, shape=(m, n))
    if fmt == "coo":
        return coo
    if fmt == "csr":
        return coo.to_csr()
    raise ValueError(f"unknown format {fmt!r} (expected 'csr' or 'coo')")

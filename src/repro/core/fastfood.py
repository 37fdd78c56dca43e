"""Fastfood transform: ``V = (1 / sqrt(n)) * S H G P H B``.

One of the Table 4 baselines (Le et al. 2013, as used by Thomas et al. 2018):
an ``n x n`` transform with only ``3 n`` learnable parameters — three
diagonal matrices ``S`` (scaling), ``G`` (Gaussian) and ``B`` (binary-ish) —
composed with two fixed Walsh–Hadamard transforms ``H`` and a fixed random
permutation ``P``.  The Hadamard transforms mix coordinates at FFT-like cost,
so applying ``V`` is ``O(n log n)``.

The fast Walsh–Hadamard transform (FWHT) here is a butterfly with constant
±1 twiddles, run like :func:`repro.core.butterfly.butterfly_multiply` on the
columns of the batch: each level is one ``np.add`` and one ``np.subtract``
over contiguous runs, written into the other of two buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_power_of_two, log2_int

__all__ = [
    "fwht",
    "fwht_matrix",
    "FastfoodTransform",
    "fastfood_param_count",
]


def fastfood_param_count(n: int) -> int:
    """Learnable parameters of a fastfood transform: ``3 n`` diagonals."""
    check_power_of_two(n)
    return 3 * n


def fwht(x: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Fast Walsh–Hadamard transform along the last axis.

    Unnormalised by default (``H @ H == n * I``); with ``normalized=True``
    the transform is orthonormal (an involution).  Accepts any leading batch
    shape; the last axis length must be a power of two.  The output has
    the memory order of a copy of the ``(batch, n)`` input rows: an
    F-ordered input gives an F-ordered output.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    log_n = log2_int(n)
    rows = x.reshape(-1, n)
    s0, s1 = map(abs, rows.strides)
    order = "C" if rows.flags.c_contiguous or s0 >= s1 else "F"
    # Level l adds and subtracts the rows 2**l apart of the columns
    # rows.T: each half of a block of 2**(l + 1) rows is one contiguous run.
    y = np.array(rows.T, dtype=np.result_type(x, np.float32), order="C")
    spare = np.empty_like(y)
    for level in range(log_n):
        half = y.reshape(n >> (level + 1), 2, -1)
        out = spare.reshape(half.shape)
        np.add(half[:, 0], half[:, 1], out=out[:, 0])
        np.subtract(half[:, 0], half[:, 1], out=out[:, 1])
        y, spare = spare, y
    if normalized:
        return np.divide(y.T, np.sqrt(n), order=order).reshape(x.shape)
    return np.asarray(y.T, order=order).reshape(x.shape)


def fwht_matrix(n: int, normalized: bool = False) -> np.ndarray:
    """Dense Walsh–Hadamard matrix (natural / Hadamard ordering)."""
    check_power_of_two(n)
    return fwht(np.eye(n), normalized=normalized).T


@dataclass
class FastfoodTransform:
    """A fastfood-parameterised ``n x n`` linear map.

    Attributes
    ----------
    s, g, b:
        The three learnable diagonals (``S``, ``G``, ``B``), shape ``(n,)``.
    perm:
        Fixed random permutation applied between the two Hadamards.
    """

    s: np.ndarray
    g: np.ndarray
    b: np.ndarray
    perm: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.s)
        check_power_of_two(n)
        if not (len(self.g) == len(self.b) == len(self.perm) == n):
            raise ValueError("all fastfood components must have length n")
        self.n = n

    @property
    def param_count(self) -> int:
        """Learnable parameters (the three diagonals)."""
        return 3 * self.n

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Apply the transform to rows of *x* in ``O(n log n)``.

        ``y = (1/sqrt(n)) * S H G P H B x`` — diagonal scale, Hadamard,
        permute, diagonal, Hadamard, diagonal.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"x has {x.shape[-1]} features, expected {self.n}")
        y = x * self.b
        y = fwht(y, normalized=True)
        y = y[..., self.perm]
        y = y * self.g
        y = fwht(y, normalized=True)
        return y * self.s

    __call__ = multiply

    def to_dense(self) -> np.ndarray:
        """Dense ``(n, n)`` expansion (columns via basis vectors)."""
        return self.multiply(np.eye(self.n)).T

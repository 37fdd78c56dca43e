"""Fastfood transform: ``V = (1 / sqrt(n)) * S H G P H B``.

One of the Table 4 baselines (Le et al. 2013, as used by Thomas et al. 2018):
an ``n x n`` transform with only ``3 n`` learnable parameters — three
diagonal matrices ``S`` (scaling), ``G`` (Gaussian) and ``B`` (binary-ish) —
composed with two fixed Walsh–Hadamard transforms ``H`` and a fixed random
permutation ``P``.  The Hadamard transforms mix coordinates at FFT-like cost,
so applying ``V`` is ``O(n log n)``.

The fast Walsh–Hadamard transform (FWHT) here is fully vectorised over the
batch dimension (a reshape/stack butterfly identical in structure to
:func:`repro.core.butterfly.butterfly_multiply` with constant ±1 twiddles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import as_rng, check_power_of_two, log2_int

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
    shape; the last axis length must be a power of two.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    log_n = log2_int(n)
    batch_shape = x.shape[:-1]
    y = x.reshape(-1, n).astype(np.result_type(x, np.float32), copy=True)
    h = 1
    for _ in range(log_n):
        y = y.reshape(-1, n // (2 * h), 2, h)
        a = y[:, :, 0, :].copy()
        b = y[:, :, 1, :].copy()
        y[:, :, 0, :] = a + b
        y[:, :, 1, :] = a - b
        y = y.reshape(-1, n)
        h *= 2
    if normalized:
        y = y / np.sqrt(n)
    return y.reshape(*batch_shape, n)


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

    @classmethod
    def random(
        cls, n: int, seed: int | np.random.Generator | None
    ) -> "FastfoodTransform":
        """Standard fastfood initialisation.

        ``B`` Rademacher (±1), ``G`` Gaussian, ``S`` chi-distributed scaling
        normalised by ``||G||`` (Le et al.'s recipe), ``P`` uniform.
        """
        check_power_of_two(n)
        rng = as_rng(seed)
        b = rng.choice([-1.0, 1.0], size=n)
        g = rng.standard_normal(n)
        # Chi(n)-distributed row norms relative to ||G||_F.
        s_raw = np.sqrt(rng.chisquare(df=n, size=n))
        s = s_raw / np.sqrt((g**2).sum())
        perm = rng.permutation(n)
        return cls(s=s, g=g, b=b, perm=perm)

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

"""Circulant weight parameterisation: ``n`` parameters, FFT-fast multiply.

A circulant matrix ``C`` is fully determined by its first column ``c``:
``C[i, j] = c[(i - j) mod n]``, and ``C @ x`` is the circular convolution
``c * x`` computable in ``O(n log n)`` via the (real) FFT.  This is the
"Circulant" baseline of Table 4.

Both forward and backward passes are provided so the autograd layer can wrap
them; the backward is itself a circular correlation, also FFT-fast.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "circulant_multiply",
    "circulant_multiply_backward",
    "circulant_to_dense",
    "circulant_param_count",
]


def circulant_param_count(n: int) -> int:
    """Learnable parameters of a circulant matrix: its defining vector."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return n


def circulant_multiply(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compute ``C x`` (circular convolution of *c* with rows of *x*).

    ``c`` is the first column of the circulant; *x* may carry leading batch
    dimensions.  Uses the real FFT — exact for real inputs up to rounding.
    """
    c = np.asarray(c)
    x = np.asarray(x)
    n = c.shape[-1]
    if c.ndim != 1:
        raise ValueError(f"c must be 1-D, got shape {c.shape}")
    if x.shape[-1] != n:
        raise ValueError(f"x has {x.shape[-1]} features, expected {n}")
    return np.fft.irfft(np.fft.rfft(c) * np.fft.rfft(x, axis=-1), n=n, axis=-1)


def circulant_multiply_backward(
    c: np.ndarray,
    x: np.ndarray,
    grad_out: np.ndarray,
    need_grad_x: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backward of :func:`circulant_multiply`.

    *x* is 1-D or carries leading batch dimensions, as in the forward, and
    *grad_out* has its shape.  With ``y = c * x`` (circular convolution):

    * ``dL/dx = c (correlate) g`` — convolution with time-reversed ``c``;
    * ``dL/dc = sum_batch x (correlate) g``.

    Both are evaluated via conjugate spectra.  With ``need_grad_x=False``
    the input gradient is skipped and returned as None.
    """
    x = np.asarray(x)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != x.shape:
        raise ValueError(
            f"grad_out must have x's shape {x.shape}, got {grad_out.shape}"
        )
    n = c.shape[-1]
    x_hat = np.fft.rfft(x, axis=-1)
    g_hat = np.fft.rfft(grad_out, axis=-1)
    cross = (np.conj(x_hat) * g_hat).reshape(-1, g_hat.shape[-1])
    grad_c = np.fft.irfft(cross.sum(axis=0), n=n)
    if not need_grad_x:
        return grad_c, None
    grad_x = np.fft.irfft(np.conj(np.fft.rfft(c)) * g_hat, n=n, axis=-1)
    return grad_c, grad_x


def circulant_to_dense(c: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` circulant with first column *c*."""
    c = np.asarray(c)
    if c.ndim != 1:
        raise ValueError(f"c must be 1-D, got shape {c.shape}")
    n = len(c)
    i = np.arange(n)
    return c[(i[:, None] - i[None, :]) % n]

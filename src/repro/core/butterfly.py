"""Butterfly factorization: factors, fast multiply, and dense expansion.

A butterfly matrix ``B`` of size ``n = 2**L`` is a product of ``L`` factors
(Eq. 3 of the paper), each factor a permuted block-diagonal matrix of 2x2
blocks.  Factor ``k`` (stride ``s``) mixes index pairs ``(j, j + s)`` inside
blocks of ``2 s`` entries: every pair has its own learnable 2x2 *twiddle*
block, giving ``2 n`` nonzeros per factor and ``2 n log2 n`` parameters in
total — versus ``n**2`` dense — while keeping an ``O(n log n)`` multiply.

Twiddle layout
--------------
We store all factors as one array ``twiddle`` of shape ``(L, n // 2, 2, 2)``.
Within level ``k`` the ``n // 2`` blocks are ordered by
``(block index, position within stride)``: with stride ``s``, the input is
viewed as ``(n // (2 s), 2, s)`` and ``twiddle[k]`` as ``(n // (2 s), s, 2, 2)``.
The multiply contracts each 2x2 block with its index pair; levels run with
strides ``1, 2, ..., n/2`` (``increasing_stride=True``, decimation-in-time)
or reversed.

The kernels work on the columns of a batch: ``x.T`` as one C-ordered
``(n, batch)`` array, viewed per level as ``(n // (2 s), s, 2, batch)``, so
that each level is a single batched ``np.matmul`` of the ``(2, 2)`` twiddles
against ``(2, batch)`` column pairs, written with ``out=`` into a buffer the
next level reads.  The batch is transposed in once and out once.

The backward pass (needed by :mod:`repro.nn.structured.butterfly`) is
implemented here as well so it can be validated against finite differences
independently of the autograd engine.
"""

from __future__ import annotations

import numpy as np

from repro.utils import as_rng, log2_int

__all__ = [
    "random_twiddle",
    "orthogonal_twiddle",
    "fft_twiddle",
    "butterfly_multiply",
    "butterfly_multiply_with_intermediates",
    "butterfly_multiply_backward",
    "butterfly_factor_dense",
    "butterfly_to_dense",
    "butterfly_param_count",
    "level_stride",
]


def butterfly_param_count(n: int) -> int:
    """Learnable parameters in a size-*n* butterfly: ``2 n log2 n``."""
    return 2 * n * log2_int(n)


def level_stride(level: int, log_n: int, increasing_stride: bool = True) -> int:
    """Pair stride used by *level* (0-based) of an ``n = 2**log_n`` butterfly."""
    if not 0 <= level < log_n:
        raise ValueError(f"level must be in [0, {log_n}), got {level}")
    return 1 << level if increasing_stride else 1 << (log_n - 1 - level)


def _check_twiddle(twiddle: np.ndarray) -> tuple[int, int]:
    """Validate twiddle shape ``(L, n/2, 2, 2)``; return ``(log_n, n)``."""
    if twiddle.ndim != 4 or twiddle.shape[2:] != (2, 2):
        raise ValueError(
            f"twiddle must have shape (log_n, n/2, 2, 2), got {twiddle.shape}"
        )
    log_n = twiddle.shape[0]
    n = 1 << log_n
    if twiddle.shape[1] != n // 2:
        raise ValueError(
            f"twiddle has {log_n} levels (n={n}) but {twiddle.shape[1]} "
            f"pairs per level (need n/2 = {n // 2})"
        )
    return log_n, n


# ---------------------------------------------------------------------------
# Twiddle constructors
# ---------------------------------------------------------------------------


def random_twiddle(
    n: int,
    seed: int | np.random.Generator | None = 0,
    scale: float | None = None,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Random Gaussian twiddles.

    The default *scale* keeps the expected squared singular values of the
    full product near 1 (each level multiplies variance by ``2 scale**2``),
    matching the initialisation used by learnable butterfly layers.
    """
    log_n = log2_int(n)
    rng = as_rng(seed)
    if scale is None:
        scale = float(np.sqrt(0.5))
    return (
        rng.standard_normal((log_n, n // 2, 2, 2)) * scale
    ).astype(dtype, copy=False)


def orthogonal_twiddle(
    n: int, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Twiddles of random 2x2 rotations — the butterfly is exactly orthogonal.

    Used by the synthetic dataset generator to plant an orthogonal mixing
    transform that a learnable butterfly layer can represent exactly.
    """
    log_n = log2_int(n)
    rng = as_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, size=(log_n, n // 2))
    c, s = np.cos(theta), np.sin(theta)
    twiddle = np.empty((log_n, n // 2, 2, 2))
    twiddle[..., 0, 0] = c
    twiddle[..., 0, 1] = -s
    twiddle[..., 1, 0] = s
    twiddle[..., 1, 1] = c
    return twiddle


def fft_twiddle(n: int) -> np.ndarray:
    """Cooley–Tukey twiddles: butterfly(bit-reversed x) == DFT(x).

    Level with stride ``s`` combines two size-``s`` DFTs with the classic
    ``[[1, w**p], [1, -w**p]]`` blocks, ``w = exp(-2 pi i / (2 s))`` — the
    ``D`` blocks of Eq. 1.  Returns a complex twiddle array.
    """
    log_n = log2_int(n)
    twiddle = np.zeros((log_n, n // 2, 2, 2), dtype=np.complex128)
    for level in range(log_n):
        s = 1 << level
        w = np.exp(-2j * np.pi * np.arange(s) / (2 * s))  # shape (s,)
        # Blocks at this level: (n // (2 s)) groups, each with s positions.
        blocks = np.tile(w, n // (2 * s))  # (n/2,)
        twiddle[level, :, 0, 0] = 1
        twiddle[level, :, 0, 1] = blocks
        twiddle[level, :, 1, 0] = 1
        twiddle[level, :, 1, 1] = -blocks
    return twiddle


# ---------------------------------------------------------------------------
# Fast multiply and its backward
# ---------------------------------------------------------------------------


def _columns(rows: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``rows.T`` as a fresh C-ordered ``(n, batch)`` array of *dtype*."""
    return np.array(rows.T, dtype=dtype, order="C")


def _pairs(cols: np.ndarray, stride: int) -> np.ndarray:
    """View ``(n, batch)`` columns as one level's ``(n/(2s), s, 2, batch)``
    pairs: entry ``[k, p, c]`` is row ``2 s k + s c + p``, the ``c``-th
    member of pair ``p`` in block ``k``."""
    n, batch = cols.shape
    return cols.reshape(n // (2 * stride), 2, stride, batch).transpose(0, 2, 1, 3)


def _level(
    twiddle_level: np.ndarray, cols: np.ndarray, stride: int, out: np.ndarray
) -> None:
    """Write one level of columns *cols* into *out*: per pair,
    ``out[k, p] = t[k, p] @ cols[k, p]``, a ``(2, 2) @ (2, batch)`` GEMM."""
    t4 = twiddle_level.reshape(-1, stride, 2, 2)
    np.matmul(t4, _pairs(cols, stride), out=_pairs(out, stride))


def butterfly_multiply(
    twiddle: np.ndarray, x: np.ndarray, increasing_stride: bool = True
) -> np.ndarray:
    """Apply the butterfly to rows of *x*: returns ``y`` with ``y_i = B x_i``.

    ``x`` may be 1-D (a single vector) or 2-D ``(batch, n)``.  Cost is
    ``O(batch * n log n)`` versus ``O(batch * n**2)`` for the dense matmul
    it replaces.  The levels run on the columns ``x.T``, alternating
    between two buffers, so no level allocates.
    """
    log_n, n = _check_twiddle(twiddle)
    x = np.asarray(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"x must be 1-D or (batch, n), got shape {x.shape}")
    if x.shape[1] != n:
        raise ValueError(f"x has {x.shape[1]} features, butterfly expects {n}")
    if log_n:
        y = _columns(x, np.result_type(twiddle, x))
        spare = np.empty_like(y)
        for level in range(log_n):
            stride = level_stride(level, log_n, increasing_stride)
            _level(twiddle[level], y, stride, out=spare)
            y, spare = spare, y
        x = y.T.copy()
    return x[0] if squeeze else x


def butterfly_multiply_with_intermediates(
    twiddle: np.ndarray, x: np.ndarray, increasing_stride: bool = True
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass that also returns each level's *input* (for backward).

    The saved input of level 0 is ``x`` itself; that of every later level
    is the C-ordered ``(n, batch)`` array of columns (the transpose of its
    rows) the level read.
    """
    log_n, n = _check_twiddle(twiddle)
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"x must be (batch, {n}), got {x.shape}")
    if not log_n:
        return x, []
    inputs = [x]
    y = _columns(x, np.result_type(twiddle, x))
    for level in range(log_n):
        if level:
            inputs.append(y)
        stride = level_stride(level, log_n, increasing_stride)
        out = np.empty_like(y)
        _level(twiddle[level], y, stride, out=out)
        y = out
    return y.T.copy(), inputs


def _twiddle_grad(
    x_cols: np.ndarray, g_cols: np.ndarray, stride: int
) -> np.ndarray:
    """One level's ``(n/2, 2, 2)`` twiddle gradient from the columns of its
    input and of its output's gradient: per pair, the batch sum of
    ``g[r] x[c]``.

    The sum's bits depend on the operands BLAS is handed, so these are the
    ones the einsum kernels formed: ``x`` first as ``(pairs, 2, batch)``,
    ``g`` as ``(pairs, batch, 2)``, C-ordered copies of the pairs at an
    inner level.  At an edge level (stride 1, or a single block) einsum
    multiplied strided views of row-layout arrays instead, so there the
    caller passes ``rows.T`` and the reshapes below stay views.  A batch of
    one is a plain product, as in einsum, which keeps signed zeros.
    """
    batch = x_cols.shape[1]
    x = _pairs(x_cols, stride).reshape(-1, 2, batch)
    g = _pairs(g_cols, stride).swapaxes(2, 3).reshape(-1, batch, 2)
    if batch == 1:
        return g.swapaxes(1, 2) * x.swapaxes(1, 2)
    return np.matmul(x, g).swapaxes(1, 2)


def butterfly_multiply_backward(
    twiddle: np.ndarray,
    inputs: list[np.ndarray],
    grad_out: np.ndarray,
    increasing_stride: bool = True,
    need_grad_x: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backward of :func:`butterfly_multiply`.

    Parameters
    ----------
    twiddle, increasing_stride:
        As in the forward pass.
    inputs:
        The per-level inputs saved by
        :func:`butterfly_multiply_with_intermediates`: ``x`` for level 0,
        then one ``(n, batch)`` array of columns per later level.
    grad_out:
        Gradient w.r.t. the output, shape ``(batch, n)``.
    need_grad_x:
        When False, the first level's input gradient — read by nothing
        but ``grad_x`` — is skipped and ``grad_x`` is None.

    Returns
    -------
    (grad_twiddle, grad_x):
        Gradients w.r.t. the twiddle array and the input batch.  The input
        gradient runs on columns like the forward, through the levels'
        transposed twiddles.
    """
    log_n, n = _check_twiddle(twiddle)
    if len(inputs) != log_n:
        raise ValueError(
            f"inputs must hold one saved input per level ({log_n}), "
            f"got {len(inputs)}"
        )
    g = np.asarray(grad_out)
    out_shape = np.shape(inputs[0] if inputs else g)[:1] + (n,)
    if g.shape != out_shape:
        raise ValueError(
            f"grad_out must have the output's shape {out_shape}, got {g.shape}"
        )
    grad_t = np.zeros_like(twiddle)
    if not log_n:
        return grad_t, g if need_grad_x else None
    cols = _columns(g, np.result_type(twiddle, g))
    spare = np.empty_like(cols)
    for level in reversed(range(log_n)):
        stride = level_stride(level, log_n, increasing_stride)
        if level in (0, log_n - 1):
            # The edge levels (stride 1 or one block) read row layout: the
            # caller's x and grad_out, and a row copy of the other operand.
            x_rows = inputs[0] if level == 0 else inputs[level].T.copy()
            g_rows = g if level == log_n - 1 else cols.T.copy()
            grad_t[level] = _twiddle_grad(x_rows.T, g_rows.T, stride)
        else:
            grad_t[level] = _twiddle_grad(inputs[level], cols, stride)
        if level or need_grad_x:
            _level(twiddle[level].swapaxes(1, 2), cols, stride, out=spare)
            cols, spare = spare, cols
    return grad_t, cols.T.copy() if need_grad_x else None


# ---------------------------------------------------------------------------
# Dense expansion
# ---------------------------------------------------------------------------


def butterfly_factor_dense(
    twiddle_level: np.ndarray, stride: int, dtype: np.dtype | None = None
) -> np.ndarray:
    """Dense ``(n, n)`` matrix of a single butterfly factor."""
    n = 2 * twiddle_level.shape[0]
    if stride <= 0 or (2 * stride) > n or n % (2 * stride):
        raise ValueError(f"invalid stride {stride} for n={n}")
    dtype = dtype or twiddle_level.dtype
    mat = np.zeros((n, n), dtype=dtype)
    t4 = twiddle_level.reshape(n // (2 * stride), stride, 2, 2)
    for k in range(n // (2 * stride)):
        base = k * 2 * stride
        for p in range(stride):
            i, j = base + p, base + p + stride
            mat[i, i] = t4[k, p, 0, 0]
            mat[i, j] = t4[k, p, 0, 1]
            mat[j, i] = t4[k, p, 1, 0]
            mat[j, j] = t4[k, p, 1, 1]
    return mat


def butterfly_to_dense(
    twiddle: np.ndarray, increasing_stride: bool = True
) -> np.ndarray:
    """Dense ``(n, n)`` matrix ``B`` with ``B @ v == butterfly_multiply(v)``.

    Implemented by pushing the identity through the fast multiply, so the
    expansion and the fast path can never drift apart.
    """
    _, n = _check_twiddle(twiddle)
    eye = np.eye(n, dtype=twiddle.dtype)
    # Rows of the result are B @ e_i, i.e. columns of B.
    return butterfly_multiply(twiddle, eye, increasing_stride).T

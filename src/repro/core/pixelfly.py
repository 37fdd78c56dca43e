"""Pixelated butterfly (pixelfly): flat block butterfly + low-rank terms.

Chen et al. (2021) make the butterfly factorization GPU-friendly with two
changes the paper's Fig 2 illustrates:

* **Flat butterfly** — instead of *multiplying* the ``log n`` factors, take a
  first-order (residual) approximation: ``prod(I + E_k) ~= I + sum(E_k)``.
  The result is a *single* sparse matrix whose support is the union of the
  factor supports — index pairs differing by exactly one power-of-two stride.
* **Block butterfly** — apply the butterfly pattern to a grid of
  ``block_size x block_size`` dense blocks rather than scalars, aligning the
  nonzeros with GPU tile/tensor-core shapes.

A low-rank term ``U V^T`` is added to recover the expressiveness lost by
flattening.  The weight is therefore

    ``W = scatter(blocks, mask) + U @ V^T``

with ``mask`` the flat block-butterfly support over the block grid.

Hyper-parameters (swept in the paper's Table 5):

* ``butterfly_size`` — the size of the *virtual* butterfly whose factor
  supports are flattened; it controls how many stride-bands the mask has
  (``1 + log2(butterfly_size)`` bands including the diagonal).
* ``block_size`` — the dense block edge length.
* ``rank`` — columns of the low-rank factors ("low rank size").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_power_of_two, log2_int

__all__ = [
    "flat_butterfly_mask",
    "block_butterfly_mask",
    "PixelflyPattern",
    "pixelfly_pattern",
    "block_sparse_multiply",
    "block_sparse_multiply_backward",
    "blocks_to_dense",
    "pixelfly_param_count",
]


def flat_butterfly_mask(n: int, n_levels: int | None = None) -> np.ndarray:
    """Boolean ``(n, n)`` support of a flattened butterfly.

    ``mask[i, j]`` is True iff ``i == j`` or ``i ^ j`` is a power of two
    among the first *n_levels* strides — exactly the union of the supports of
    the butterfly factors with strides ``1, 2, ..., 2**(n_levels-1)``.
    With ``n_levels = log2(n)`` (the default) this is the support of the sum
    of *all* factors.
    """
    check_power_of_two(n)
    log_n = log2_int(n)
    if n_levels is None:
        n_levels = log_n
    if not 0 <= n_levels <= log_n:
        raise ValueError(f"n_levels must be in [0, {log_n}], got {n_levels}")
    idx = np.arange(n)
    diff = idx[:, None] ^ idx[None, :]
    mask = diff == 0
    for level in range(n_levels):
        mask |= diff == (1 << level)
    return mask


def _block_grid(
    n: int, block_size: int, butterfly_size: int | None
) -> tuple[int, int]:
    """Validate the grid arguments; return ``(nb, butterfly_size)``."""
    check_power_of_two(n)
    check_power_of_two(block_size, "block_size")
    if block_size > n:
        raise ValueError(f"block_size {block_size} exceeds n {n}")
    nb = n // block_size
    if butterfly_size is None:
        butterfly_size = nb
    check_power_of_two(butterfly_size, "butterfly_size")
    return nb, butterfly_size


def block_butterfly_mask(
    n: int, block_size: int, butterfly_size: int | None = None
) -> np.ndarray:
    """Boolean block-grid mask of shape ``(n // bs, n // bs)``.

    The flat-butterfly pattern of a virtual ``butterfly_size`` transform is
    laid over the ``(n // block_size)`` grid: stride bands above the grid size
    wrap modulo the grid (the virtual butterfly is larger than the physical
    block grid), so growing ``butterfly_size`` monotonically densifies the
    mask until it saturates.
    """
    nb, butterfly_size = _block_grid(n, block_size, butterfly_size)
    levels = log2_int(butterfly_size)
    idx = np.arange(nb)
    diff = idx[:, None] ^ idx[None, :]
    mask = diff == 0
    for level in range(levels):
        stride = (1 << level) % nb
        if stride == 0:
            # Virtual stride wraps to the diagonal; already covered.
            continue
        mask |= diff == stride
    return mask


@dataclass(frozen=True)
class PixelflyPattern:
    """Materialised pixelfly sparsity pattern for an ``n x n`` weight.

    Attributes
    ----------
    n, block_size, butterfly_size, rank:
        Hyper-parameters (see module docstring).
    block_mask:
        Boolean ``(nb, nb)`` grid mask.
    block_rows, block_cols:
        Index arrays of the active blocks, in row-major mask order — the
        storage order of the packed block values.

    Every block-row and every block-column holds the same number of
    blocks (:attr:`blocks_per_row`), because each stride band is an XOR
    permutation of the grid.  The block-sparse kernels rely on that layout
    to accumulate without a scatter — the forward by block slot, the
    backward with a segmented sum — so construction checks it.
    """

    n: int
    block_size: int
    butterfly_size: int
    rank: int
    block_mask: np.ndarray
    block_rows: np.ndarray
    block_cols: np.ndarray

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.n % self.block_size:
            raise ValueError(
                f"block_size {self.block_size} does not divide n {self.n}"
            )
        nb = self.n // self.block_size
        if np.shape(self.block_mask) != (nb, nb):
            raise ValueError(
                f"block_mask must have shape ({nb}, {nb}), "
                f"got {np.shape(self.block_mask)}"
            )
        rows, cols = np.nonzero(self.block_mask)
        if not (
            np.array_equal(rows, self.block_rows)
            and np.array_equal(cols, self.block_cols)
        ):
            raise ValueError(
                "block_rows and block_cols must list the active blocks of "
                "block_mask in row-major order"
            )
        k = len(rows) // nb
        if (np.bincount(rows, minlength=nb) != k).any() or (
            np.bincount(cols, minlength=nb) != k
        ).any():
            raise ValueError(
                "every block-row and block-column of block_mask must hold "
                "the same number of blocks"
            )

    @property
    def n_blocks(self) -> int:
        """Number of active dense blocks."""
        return int(len(self.block_rows))

    @property
    def blocks_per_row(self) -> int:
        """Active blocks in each block-row (and in each block-column)."""
        return self.n_blocks * self.block_size // self.n

    @property
    def nnz(self) -> int:
        """Nonzeros contributed by the block-sparse term."""
        return self.n_blocks * self.block_size**2

    def sparse_params(self) -> int:
        """Learnable parameters in the block-sparse term."""
        return self.nnz

    def lowrank_params(self) -> int:
        """Learnable parameters in the ``U V^T`` term (``2 n rank``)."""
        return 2 * self.n * self.rank

    def total_params(self) -> int:
        """All learnable parameters of the pixelfly weight."""
        return self.sparse_params() + self.lowrank_params()


def pixelfly_pattern(
    n: int, block_size: int = 32, butterfly_size: int | None = None, rank: int = 1
) -> PixelflyPattern:
    """Build the :class:`PixelflyPattern` for the given hyper-parameters."""
    mask = block_butterfly_mask(n, block_size, butterfly_size)
    rows, cols = np.nonzero(mask)
    if butterfly_size is None:
        butterfly_size = n // block_size
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return PixelflyPattern(
        n=n,
        block_size=block_size,
        butterfly_size=butterfly_size,
        rank=rank,
        block_mask=mask,
        block_rows=rows.astype(np.int64),
        block_cols=cols.astype(np.int64),
    )


def pixelfly_param_count(
    n: int, block_size: int = 32, butterfly_size: int | None = None, rank: int = 1
) -> int:
    """Parameter count of a pixelfly weight without building its pattern.

    Equals ``pixelfly_pattern(...).total_params()``.  Each stride band
    is an XOR permutation of the ``nb x nb`` block grid, and the strides
    ``2**level % nb`` below ``nb`` are distinct, so every block-row holds
    ``1 + min(log2(butterfly_size), log2(nb))`` blocks.
    """
    nb, butterfly_size = _block_grid(n, block_size, butterfly_size)
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    per_row = 1 + min(log2_int(butterfly_size), log2_int(nb))
    return nb * per_row * block_size**2 + 2 * n * rank


# ---------------------------------------------------------------------------
# Block-sparse numerics
# ---------------------------------------------------------------------------


def block_sparse_multiply(
    blocks: np.ndarray, pattern: PixelflyPattern, x: np.ndarray
) -> np.ndarray:
    """Compute rows ``y_i = W_sparse @ x_i`` for the packed block values.

    ``blocks`` has shape ``(n_blocks, bs, bs)`` in the pattern's storage
    order; ``x`` is ``(batch, n)`` (or 1-D).  The blocks are stored
    row-major with ``blocks_per_row`` blocks in every block-row, so slot
    ``j`` of every block-row is ``blocks[j::blocks_per_row]``.  The product
    streams over those slots: for slot ``j`` it gathers the input
    block-column each block-row's ``j``-th block reads, a ``(batch, nb, bs)``
    array, applies the slot's ``nb`` blocks as one batched matmul of
    ``(batch, bs) @ (bs, bs)`` GEMMs, and adds the result into an output of
    zeros.  Slot 0 is added first, so every output block-row sums its
    blocks from zero in storage order — the order a scatter-add adds them
    in — and no intermediate is larger than the output (PopSparse's
    static block-sparse plan).
    """
    x, squeeze = _as_batch(blocks, pattern, x)
    bs = pattern.block_size
    nb = pattern.n // bs
    k = pattern.blocks_per_row
    xb = x.reshape(x.shape[0], nb, bs)
    cols = pattern.block_cols.reshape(nb, k)
    out = np.zeros(xb.shape, dtype=np.result_type(x, blocks))
    for j in range(k):
        gathered = xb[:, cols[:, j], :]  # (batch, nb, bs)
        # One (batch, bs) @ (bs, bs) GEMM per block: x_k @ block_k.T.
        out += np.matmul(
            gathered.transpose(1, 0, 2), blocks[j::k].transpose(0, 2, 1)
        ).transpose(1, 0, 2)
    out = out.reshape(x.shape[0], pattern.n)
    return out[0] if squeeze else out


def block_sparse_multiply_backward(
    blocks: np.ndarray,
    pattern: PixelflyPattern,
    x: np.ndarray,
    grad_out: np.ndarray,
    need_grad_x: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backward of :func:`block_sparse_multiply`.

    Returns ``(grad_blocks, grad_x)``, each shaped like its forward input
    (``x`` may be 1-D; ``grad_x`` has its dtype).  With
    ``need_grad_x=False`` the input gradient — most of the work when the
    batch is small — is skipped and returned as None.
    """
    x, squeeze = _as_batch(blocks, pattern, x)
    out_shape = (pattern.n,) if squeeze else x.shape
    grad_out = np.asarray(grad_out)
    if grad_out.shape != out_shape:
        raise ValueError(
            f"grad_out must have the output's shape {out_shape}, "
            f"got {grad_out.shape}"
        )
    bs = pattern.block_size
    batch = x.shape[0]
    nb = pattern.n // bs
    xb = x.reshape(batch, nb, bs)
    gb = grad_out.reshape(batch, nb, bs)
    g_rows = gb[:, pattern.block_rows, :]  # (batch, n_blocks, bs)
    x_cols = xb[:, pattern.block_cols, :]
    # One (bs, batch) @ (batch, bs) GEMM per block, C-ordered like blocks.
    grad_blocks = g_rows.transpose(1, 2, 0) @ x_cols.transpose(1, 0, 2)
    if not need_grad_x:
        return grad_blocks, None
    partial = np.matmul(g_rows.transpose(1, 0, 2), blocks).transpose(1, 0, 2)
    # A stable sort by column groups each block-column's blocks and keeps
    # them in storage order, the order a scatter would add them in.
    by_col = np.argsort(pattern.block_cols, kind="stable")
    grad_x = _segment_sum(partial[:, by_col], pattern, x.dtype)
    return grad_blocks, grad_x[0] if squeeze else grad_x


def _as_batch(
    blocks: np.ndarray, pattern: PixelflyPattern, x: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Validate the operands; return 2-D ``x`` and whether it was 1-D."""
    bs = pattern.block_size
    if blocks.shape != (pattern.n_blocks, bs, bs):
        raise ValueError(
            f"blocks must have shape ({pattern.n_blocks}, {bs}, {bs}), "
            f"got {blocks.shape}"
        )
    x = np.asarray(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"x must be 1-D or (batch, n), got shape {x.shape}")
    if x.shape[1] != pattern.n:
        raise ValueError(f"x has {x.shape[1]} features, expected {pattern.n}")
    return x, squeeze


def _segment_sum(
    partial: np.ndarray, pattern: PixelflyPattern, dtype: np.dtype
) -> np.ndarray:
    """Sum ``(batch, n_blocks, bs)`` partials in consecutive runs of
    ``blocks_per_row`` blocks into a ``(batch, n)`` array of *dtype*.

    Each run is added one block at a time, from zero, in storage order:
    the order a scatter-add over the run's segment index adds it in, so the
    bits agree with the scatter at every shape.  (``runs.sum(axis=2)``
    does not: with ``bs == 1`` numpy sums the run pairwise.)
    """
    batch, _, bs = partial.shape
    runs = partial.reshape(batch, pattern.n // bs, pattern.blocks_per_row, bs)
    out = np.zeros((batch, pattern.n // bs, bs), dtype=dtype)
    for j in range(pattern.blocks_per_row):
        out += runs[:, :, j]
    return out.reshape(batch, pattern.n)


def blocks_to_dense(blocks: np.ndarray, pattern: PixelflyPattern) -> np.ndarray:
    """Expand packed block values to the dense ``(n, n)`` sparse term."""
    bs = pattern.block_size
    nb = pattern.n // bs
    dense = np.zeros((nb, bs, nb, bs), dtype=blocks.dtype)
    dense[pattern.block_rows, :, pattern.block_cols, :] = blocks
    return dense.transpose(0, 1, 2, 3).reshape(nb * bs, nb * bs)

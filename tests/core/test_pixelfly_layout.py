"""The block-sparse kernels' accumulation order and the layout it relies on.

Pixelfly stores its blocks row-major with the same number of blocks in
every block-row and block-column, so the kernels accumulate without a
scatter: the forward streams over block slots, the backward sums in
segments.  These tests pin that both give the scatter's bits, that the
streamed forward gives the bits of the gather-all forward it replaced, and
that a pattern without that layout, or operands of the wrong shape, fail
loudly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pixelfly import (
    block_sparse_multiply,
    block_sparse_multiply_backward,
    pixelfly_pattern,
)

#: (n, block_size, butterfly_size): n 64-2048, blocks 1-64, butterfly
#: size below, at and above the block grid, and one block per row.
SHAPES = [
    (64, 8, None),
    (64, 64, None),
    (256, 8, 4),
    (256, 32, None),
    (256, 32, 1),
    (512, 16, 128),
    (1024, 32, None),
    (2048, 64, 256),
    (2048, 1, None),
]


def scatter_multiply(blocks, pattern, x):
    """The kernels' former scatter-add dataflow (the reference)."""
    batch, bs = x.shape[0], pattern.block_size
    xb = x.reshape(batch, pattern.n // bs, bs)
    partial = np.einsum(
        "kij,bkj->bki", blocks, xb[:, pattern.block_cols], optimize=True
    )
    out = np.zeros(xb.shape, dtype=partial.dtype)
    np.add.at(out, (slice(None), pattern.block_rows), partial)
    return out.reshape(batch, pattern.n)


def gather_all_multiply(blocks, pattern, x):
    """The forward the slot loop replaced: gather every block's input
    block-column, one batched GEMM over all blocks, then a segmented sum."""
    batch, bs = x.shape[0], pattern.block_size
    xb = x.reshape(batch, pattern.n // bs, bs)
    gathered = xb[:, pattern.block_cols, :]  # (batch, n_blocks, bs)
    partial = np.matmul(
        gathered.transpose(1, 0, 2), blocks.transpose(0, 2, 1)
    ).transpose(1, 0, 2)
    runs = partial.reshape(batch, pattern.n // bs, pattern.blocks_per_row, bs)
    out = np.zeros(xb.shape, dtype=partial.dtype)
    for j in range(pattern.blocks_per_row):
        out += runs[:, :, j]
    return out.reshape(batch, pattern.n)


def scatter_backward(blocks, pattern, x, grad_out):
    batch, bs = x.shape[0], pattern.block_size
    xb = x.reshape(batch, pattern.n // bs, bs)
    g_rows = grad_out.reshape(xb.shape)[:, pattern.block_rows]
    grad_blocks = np.einsum(
        "bki,bkj->kij", g_rows, xb[:, pattern.block_cols], optimize=True
    )
    partial = np.einsum("kij,bki->bkj", blocks, g_rows, optimize=True)
    grad_x = np.zeros_like(xb)
    np.add.at(grad_x, (slice(None), pattern.block_cols), partial)
    return grad_blocks, grad_x.reshape(batch, pattern.n)


@pytest.mark.parametrize("n, bs, butterfly_size", SHAPES)
@pytest.mark.parametrize("batch", [1, 50])
@pytest.mark.parametrize("x_dtype", [np.float64, np.float32])
def test_segmented_sums_match_the_scatter_bit_for_bit(
    n, bs, butterfly_size, batch, x_dtype
):
    """float32 ``x`` is the training data's dtype; its gradient stays
    float32, as the scatter into ``zeros_like(x)`` made it."""
    pattern = pixelfly_pattern(n, bs, butterfly_size)
    rng = np.random.default_rng(n + bs + batch)
    blocks = rng.standard_normal((pattern.n_blocks, bs, bs))
    x = rng.standard_normal((batch, n)).astype(x_dtype)
    grad_out = rng.standard_normal((batch, n))
    got = block_sparse_multiply(blocks, pattern, x)
    assert got.tobytes() == scatter_multiply(blocks, pattern, x).tobytes()
    grad_blocks, grad_x = block_sparse_multiply_backward(
        blocks, pattern, x, grad_out
    )
    want_blocks, want_x = scatter_backward(blocks, pattern, x, grad_out)
    assert grad_blocks.tobytes() == want_blocks.tobytes()
    assert grad_blocks.flags.c_contiguous
    assert grad_x.dtype == x_dtype
    assert grad_x.tobytes() == want_x.tobytes()


@pytest.mark.parametrize("n, bs, butterfly_size", SHAPES)
@pytest.mark.parametrize("batch", [1, 3, 5, 50, 200])
@pytest.mark.parametrize("x_dtype", [np.float64, np.float32])
@pytest.mark.parametrize("order", ["C", "F"])
def test_slot_loop_matches_the_gather_all_forward_bit_for_bit(
    n, bs, butterfly_size, batch, x_dtype, order
):
    """Each slot's GEMMs keep the ``(batch, bs) @ (bs, bs)`` shape and the
    sum keeps its order, so the bits hold for any layout of ``x`` — also
    an F-ordered float32 batch, which the scatter reference does not match
    at every shape."""
    pattern = pixelfly_pattern(n, bs, butterfly_size)
    rng = np.random.default_rng(n + bs + batch)
    blocks = rng.standard_normal((pattern.n_blocks, bs, bs))
    x = np.asarray(
        rng.standard_normal((batch, n)).astype(x_dtype), order=order
    )
    got = block_sparse_multiply(blocks, pattern, x)
    want = gather_all_multiply(blocks, pattern, x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, bs, butterfly_size", SHAPES)
def test_slot_loop_matches_the_gather_all_forward_on_float32_blocks(
    n, bs, butterfly_size
):
    pattern = pixelfly_pattern(n, bs, butterfly_size)
    rng = np.random.default_rng(n * bs)
    blocks = rng.standard_normal((pattern.n_blocks, bs, bs)).astype(np.float32)
    x = rng.standard_normal((7, n)).astype(np.float32)
    got = block_sparse_multiply(blocks, pattern, x)
    assert got.dtype == np.float32
    assert got.tobytes() == gather_all_multiply(blocks, pattern, x).tobytes()
    one = block_sparse_multiply(blocks, pattern, x[2])
    assert one.shape == (n,)
    want_one = gather_all_multiply(blocks, pattern, x[2:3])
    assert one.tobytes() == want_one.tobytes()


def test_skipping_grad_x_leaves_grad_blocks_unchanged(rng):
    pattern = pixelfly_pattern(256, 16)
    blocks = rng.standard_normal((pattern.n_blocks, 16, 16))
    x, grad_out = rng.standard_normal((2, 5, 256))
    full = block_sparse_multiply_backward(blocks, pattern, x, grad_out)
    skipped = block_sparse_multiply_backward(
        blocks, pattern, x, grad_out, need_grad_x=False
    )
    assert skipped[1] is None
    assert skipped[0].tobytes() == full[0].tobytes()


class TestLayoutIsChecked:
    def test_blocks_per_row(self):
        pattern = pixelfly_pattern(1024, 32)
        assert pattern.blocks_per_row == 6
        assert (pattern.block_mask.sum(axis=0) == 6).all()
        assert (pattern.block_mask.sum(axis=1) == 6).all()

    def test_uneven_block_rows_are_rejected(self):
        pattern = pixelfly_pattern(64, 8)
        mask = pattern.block_mask.copy()
        mask[0, 7] = True  # row 0 and column 7 gain a block
        rows, cols = np.nonzero(mask)
        with pytest.raises(ValueError, match="same number of blocks"):
            replace(pattern, block_mask=mask, block_rows=rows, block_cols=cols)

    def test_unsorted_blocks_are_rejected(self):
        pattern = pixelfly_pattern(64, 8)
        order = np.argsort(pattern.block_cols, kind="stable")
        with pytest.raises(ValueError, match="row-major order"):
            replace(
                pattern,
                block_rows=pattern.block_rows[order],
                block_cols=pattern.block_cols[order],
            )

    def test_mask_of_the_wrong_grid_is_rejected(self):
        pattern = pixelfly_pattern(64, 8)
        with pytest.raises(ValueError, match=r"shape \(8, 8\)"):
            replace(pattern, block_mask=np.eye(4, dtype=bool))


class TestBackwardChecksShapes:
    @pytest.fixture
    def operands(self, rng):
        pattern = pixelfly_pattern(64, 8)
        blocks = rng.standard_normal((pattern.n_blocks, 8, 8))
        return pattern, blocks, rng.standard_normal((3, 64))

    def test_wrong_grad_out(self, operands, rng):
        pattern, blocks, x = operands
        with pytest.raises(ValueError, match="grad_out must have"):
            block_sparse_multiply_backward(
                blocks, pattern, x, rng.standard_normal((3, 32))
            )

    def test_wrong_x(self, operands, rng):
        pattern, blocks, _ = operands
        with pytest.raises(ValueError, match="x has 32 features"):
            block_sparse_multiply_backward(
                blocks,
                pattern,
                rng.standard_normal((3, 32)),
                rng.standard_normal((3, 64)),
            )

    def test_wrong_blocks(self, operands):
        pattern, blocks, x = operands
        with pytest.raises(ValueError, match="blocks must have shape"):
            block_sparse_multiply_backward(blocks[1:], pattern, x, x)

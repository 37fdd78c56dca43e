"""The butterfly and FWHT kernels' bits, dtypes and memory order.

The kernels run on the columns ``x.T`` in reused buffers, each butterfly
level one batched ``np.matmul``.  They replaced einsum kernels on rows and
an FWHT that copied both halves at every level; those are kept here as the
reference, and every output must match them byte for byte.  The twiddle
gradient sums over the batch, so its bits depend on the operands BLAS is
handed; these tests pin that the kernels hand it einsum's.  Malformed
operands must fail at the kernel boundary with a clear message.
"""

import numpy as np
import pytest

from repro.core.butterfly import (
    butterfly_multiply,
    butterfly_multiply_backward,
    butterfly_multiply_with_intermediates,
    butterfly_to_dense,
    level_stride,
    random_twiddle,
)
from repro.core.fastfood import fwht

# -- the reference kernels ---------------------------------------------------


def einsum_level(twiddle_level, x, stride):
    batch, n = x.shape
    nblocks = n // (2 * stride)
    x4 = x.reshape(batch, nblocks, 2, stride)
    t4 = twiddle_level.reshape(nblocks, stride, 2, 2)
    y4 = np.einsum("kprc,bkcp->bkrp", t4, x4, optimize=True)
    return y4.reshape(batch, n)


def einsum_forward(twiddle, x, increasing_stride):
    log_n = twiddle.shape[0]
    inputs, y = [], x
    for level in range(log_n):
        inputs.append(y)
        stride = level_stride(level, log_n, increasing_stride)
        y = einsum_level(twiddle[level], y, stride)
    return y, inputs


def einsum_backward(twiddle, inputs, grad_out, increasing_stride):
    log_n = twiddle.shape[0]
    n = 1 << log_n
    grad_t = np.zeros_like(twiddle)
    g = grad_out
    batch = g.shape[0]
    for level in reversed(range(log_n)):
        stride = level_stride(level, log_n, increasing_stride)
        nblocks = n // (2 * stride)
        x4 = inputs[level].reshape(batch, nblocks, 2, stride)
        g4 = g.reshape(batch, nblocks, 2, stride)
        t4 = twiddle[level].reshape(nblocks, stride, 2, 2)
        gt = np.einsum("bkrp,bkcp->kprc", g4, x4, optimize=True)
        grad_t[level] = gt.reshape(n // 2, 2, 2)
        g = np.einsum("kprc,bkrp->bkcp", t4, g4, optimize=True).reshape(
            batch, n
        )
    return grad_t, g


def copying_fwht(x, normalized=False):
    x = np.asarray(x)
    n = x.shape[-1]
    batch_shape = x.shape[:-1]
    y = x.reshape(-1, n).astype(np.result_type(x, np.float32), copy=True)
    h = 1
    while h < n:
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


def assert_same(got, want):
    """Equal bytes, dtype, shape and memory order."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.tobytes() == want.tobytes()


# -- the training pair -------------------------------------------------------


#: (n, batch): every pair of n in {2, 4, 64, 1024, 2048} and batch in
#: {1, 2, 30, 50, 250}; the three largest take most of the time.
SIZES = [
    pytest.param(n, batch, marks=pytest.mark.slow) if n * batch > 10**5
    else (n, batch)
    for n in (2, 4, 64, 1024, 2048)
    for batch in (1, 2, 30, 50, 250)
]


@pytest.mark.parametrize("n, batch", SIZES)
@pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_order", ["C", "F"])
@pytest.mark.parametrize("increasing_stride", [True, False])
def test_training_pair_matches_einsum_bit_for_bit(
    n, batch, x_dtype, x_order, increasing_stride
):
    """float32 ``x`` is the training data's dtype.  Level 0's twiddle
    gradient reads it directly, and the last level's reads ``grad_out``."""
    rng = np.random.default_rng(n + batch)
    twiddle = random_twiddle(n, seed=rng)
    x = np.asarray(rng.standard_normal((batch, n)), x_dtype, order=x_order)
    y, inputs = butterfly_multiply_with_intermediates(
        twiddle, x, increasing_stride
    )
    want_y, want_inputs = einsum_forward(twiddle, x, increasing_stride)
    assert_same(y, want_y)
    assert inputs[0] is x
    for grad_order in ("C", "F"):
        grad_out = np.asarray(rng.standard_normal((batch, n)), order=grad_order)
        want_t, want_x = einsum_backward(
            twiddle, want_inputs, grad_out, increasing_stride
        )
        grad_t, grad_x = butterfly_multiply_backward(
            twiddle, inputs, grad_out, increasing_stride
        )
        assert_same(grad_t, want_t)
        assert_same(grad_x, want_x)
    grad_t, grad_x = butterfly_multiply_backward(
        twiddle, inputs, grad_out, increasing_stride, need_grad_x=False
    )
    assert grad_x is None
    assert_same(grad_t, want_t)


def test_batch_of_one_keeps_signed_zeros(rng):
    """At batch 1 einsum's twiddle gradient is a plain product, which keeps
    the sign of ``x * 0.0``; a one-term matmul would add it to ``+0.0``."""
    twiddle = random_twiddle(16, seed=rng)
    x = -np.abs(rng.standard_normal((1, 16)))
    _, inputs = butterfly_multiply_with_intermediates(twiddle, x)
    _, want_inputs = einsum_forward(twiddle, x, True)
    grad_out = np.zeros((1, 16))
    grad_t, _ = butterfly_multiply_backward(twiddle, inputs, grad_out)
    want_t, _ = einsum_backward(twiddle, want_inputs, grad_out, True)
    assert np.signbit(want_t).any()
    assert_same(grad_t, want_t)


# -- the plain multiply and the dense expansion -------------------------------


@pytest.mark.parametrize("n", [2, 64, 1024])
@pytest.mark.parametrize("increasing_stride", [True, False])
def test_multiply_and_dense_match_einsum(n, increasing_stride, rng):
    """Batch 800 is the synthetic data generator's; the dense expansion
    pushes the identity through the multiply."""
    twiddle = random_twiddle(n, seed=rng)

    def want(x):
        return einsum_forward(twiddle, x, increasing_stride)[0]

    v = rng.standard_normal(n)
    assert_same(butterfly_multiply(twiddle, v, increasing_stride), want(v[None])[0])
    x = rng.standard_normal((800, n))
    assert_same(butterfly_multiply(twiddle, x, increasing_stride), want(x))
    assert_same(
        butterfly_to_dense(twiddle, increasing_stride), want(np.eye(n)).T
    )


# -- fwht ---------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("shape", [(64,), (50, 1), (50, 1024), (3, 5, 64)])
def test_fwht_matches_the_copying_transform(dtype, order, normalized, shape, rng):
    """The Fastfood layer's permutation gather hands the second FWHT an
    F-ordered batch, and its output's order reaches ``MatMul.backward``."""
    x = np.asarray(10 * rng.standard_normal(shape), dtype, order=order)
    assert_same(fwht(x, normalized), copying_fwht(x, normalized))


def test_fwht_keeps_a_strided_input_s_order(rng):
    f_ordered = np.asfortranarray(rng.standard_normal((6, 64)))
    for x in (f_ordered[::2], f_ordered[:, ::-2], f_ordered.T[::2].T):
        assert_same(fwht(x), copying_fwht(x))


# -- malformed operands -------------------------------------------------------


class TestMalformedOperandsFailAtTheBoundary:
    @pytest.fixture
    def saved(self, rng):
        twiddle = random_twiddle(8, seed=rng)
        x = rng.standard_normal((2, 8))
        return twiddle, butterfly_multiply_with_intermediates(twiddle, x)[1]

    def test_x_of_three_dimensions(self, rng):
        with pytest.raises(ValueError, match=r"x must be 1-D or \(batch, n\)"):
            butterfly_multiply(random_twiddle(8), rng.standard_normal((2, 8, 3)))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 8)])
    def test_grad_out_of_another_shape(self, saved, shape, rng):
        twiddle, inputs = saved
        with pytest.raises(ValueError, match=r"grad_out must have .* \(2, 8\)"):
            butterfly_multiply_backward(
                twiddle, inputs, rng.standard_normal(shape)
            )

    def test_saved_levels_of_another_twiddle(self, saved, rng):
        twiddle, inputs = saved
        with pytest.raises(ValueError, match="one saved input per level"):
            butterfly_multiply_backward(
                twiddle, inputs[:1], rng.standard_normal((2, 8))
            )

"""Elementwise and indexing ops keep the bits of the code they replaced.

``ReLU``'s forward is ``np.fmax(a, 0)`` instead of
``np.where(a > 0, a, 0)``; ``GetItem``'s backward assigns ``grad + 0.0``
for a basic key instead of scatter-adding into zeros; and Fastfood's fixed
permutation gathers its gradient by the inverse permutation.  Each must
give the replaced code's bytes, signed zeros, NaN, infinities and
subnormals included, for any memory layout.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.structured._functions import PermuteFn


def _specials(dtype):
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    return np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
         info.tiny - tiny, -(info.tiny - tiny), info.tiny, -info.tiny,
         1.0, -1.0, info.max, -info.max],
        dtype=dtype,
    )


def _layouts(dtype):
    """Short and long C-ordered arrays (numpy's scalar and SIMD loops),
    an F-ordered one, strided views and a training-sized batch."""
    rng = np.random.default_rng(0)
    specials = _specials(dtype)
    grid = rng.permutation(np.tile(specials, 64 * 32)).reshape(64, -1)
    batch = rng.standard_normal((50, 1024)).astype(dtype)
    batch.flat[:: 97] = np.resize(specials, batch.flat[:: 97].shape)
    return {
        "specials": specials,
        "c": grid,
        "f": np.asfortranarray(grid),
        "strided": grid[::3, ::2],
        "strided-f": np.asfortranarray(grid)[1::2, ::5],
        "batch": batch,
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "layout", ["specials", "c", "f", "strided", "strided-f", "batch"]
)
def test_relu_forward_is_the_where_select_bit_for_bit(dtype, layout):
    a = _layouts(dtype)[layout]
    want = np.where(a > 0, a, 0)
    x = Tensor(a.copy(order="K"), requires_grad=True)
    out = F.relu(x)
    assert out.data.dtype == want.dtype
    assert out.data.tobytes() == want.tobytes()
    grad = np.ones(a.shape, dtype=dtype)
    out.backward(grad)
    assert x.grad.tobytes() == (grad * (a > 0)).tobytes()


def _scatter_backward(shape, key, grad):
    out = np.zeros(shape, dtype=grad.dtype)
    np.add.at(out, key, grad)
    return out


@pytest.mark.parametrize(
    "key",
    [
        (slice(None), slice(0, 5)),  # Butterfly's output slice
        3,
        np.int64(-2),
        (Ellipsis, 2),
        (None, slice(1, None, 2)),
        (slice(None, None, -1), 4),
        (np.array([0, 0, 5]),),  # repeats: keeps the scatter's sum
        (slice(None), np.array([7, 1, 7])),
        np.arange(8) % 2 == 0,
    ],
    ids=repr,
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_getitem_backward_matches_the_scatter(key, dtype):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 9)).astype(dtype)
    x = Tensor(a, requires_grad=True)
    out = F.getitem(x, key)
    grad = rng.standard_normal(out.shape).astype(dtype)
    grad.flat[::2] = -0.0
    out.backward(grad)
    want = _scatter_backward(a.shape, key, grad)
    assert x.grad.dtype == want.dtype
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_permutation_backward_matches_the_scatter(dtype):
    rng = np.random.default_rng(2)
    perm = rng.permutation(64)
    a = rng.standard_normal((5, 64)).astype(dtype)
    x = Tensor(a, requires_grad=True)
    out = PermuteFn.apply(x, perm)
    assert out.data.tobytes() == a[:, perm].tobytes()
    grad = rng.standard_normal((5, 64)).astype(dtype)
    grad[:, ::3] = -0.0
    out.backward(grad)
    want = _scatter_backward(a.shape, (slice(None), perm), grad)
    assert x.grad.dtype == want.dtype
    assert x.grad.tobytes() == want.tobytes()


def test_fastfood_trains_as_with_the_indexed_permutation(monkeypatch):
    """One step of the permuted layer against the ``getitem`` route."""

    def run():
        layer = nn.FastfoodLinear(32, seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((6, 32)))
        (layer(x) * layer(x)).sum().backward()
        return [p.grad.tobytes() for p in layer.parameters()]

    got = run()
    monkeypatch.setattr(
        PermuteFn,
        "apply",
        staticmethod(lambda x, perm: F.getitem(x, (slice(None), perm))),
    )
    assert run() == got

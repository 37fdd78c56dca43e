"""``SGD.step`` updates in row blocks and keeps a whole-array update's bits.

The step runs its ufuncs over blocks of whole rows, at most
``optim._BLOCK`` elements each (one row if a row is wider), so its scratch
array holds one block instead of the largest parameter.  The ufuncs are
elementwise, so every step must give the bits of the same ufuncs run over
whole arrays, for any layout of the gradient.
"""

import math

import numpy as np
import pytest

from repro.nn import SGD, optim
from repro.nn.tensor import Parameter

LR, MU = 0.05, 0.9

#: 0-d, 1-D longer than a block, Baseline's hidden weight, and rows wider
#: than a block.
SHAPES = [(), (3 * optim._BLOCK + 5,), (1024, 1024), (3, 50_000)]

MODES = {
    "plain": dict(momentum=0.0),
    "momentum": dict(momentum=MU),
    "nesterov": dict(momentum=MU, nesterov=True),
}


class WholeArraySGD:
    """The update the row blocks replaced: each ufunc over whole arrays."""

    def __init__(self, params, lr, momentum=0.0, nesterov=False):
        self.params = params
        self.lr, self.momentum, self.nesterov = lr, momentum, nesterov
        self.velocity = [None] * len(params)
        self.scratch = np.empty(
            max(p.data.size for p in params),
            dtype=np.result_type(lr, np.float64, *{p.data.dtype for p in params}),
        )

    def step(self):
        for i, p in enumerate(self.params):
            g = p.grad
            if self.momentum:
                if self.velocity[i] is None:
                    self.velocity[i] = g.copy()
                else:
                    self.velocity[i] *= self.momentum
                    self.velocity[i] += g
                v = self.velocity[i]
                g = g + self.momentum * v if self.nesterov else v
            step = self.scratch[: g.size].reshape(g.shape)
            np.multiply(self.lr, g, out=step)
            p.data -= step


def _grads(shape, dtype, order, steps=3):
    rng = np.random.default_rng(len(shape) + steps)
    return [
        np.asarray(rng.standard_normal(shape).astype(dtype), order=order)
        for _ in range(steps)
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", ["C", "F"])
def test_row_blocks_match_the_whole_array_update(shape, dtype, mode, order):
    rng = np.random.default_rng(7)
    start = rng.standard_normal(shape).astype(dtype)
    blocked = Parameter(start.copy())
    whole = Parameter(start.copy())
    opt = SGD([blocked], lr=LR, **MODES[mode])
    ref = WholeArraySGD([whole], lr=LR, **MODES[mode])
    data = blocked.data
    for g in _grads(shape, dtype, order):
        blocked.grad, whole.grad = g, g.copy(order="K")
        opt.step()
        ref.step()
        assert blocked.data is data  # updated in place
        assert blocked.data.tobytes() == whole.data.tobytes()
        if mode != "plain":
            assert opt._velocity[0].tobytes() == ref.velocity[0].tobytes()
    assert blocked.grad.tobytes() == whole.grad.tobytes()  # grad untouched


def test_scratch_is_one_block():
    params = [Parameter(np.zeros(shape)) for shape in SHAPES]
    opt = SGD(params, lr=LR, momentum=MU)
    widest_row = max(math.prod(shape[1:]) for shape in SHAPES)
    assert opt._scratch.size <= max(optim._BLOCK, widest_row)
    # Baseline's (1024, 1024) weight alone: one 32-row block, not 8 MiB.
    assert SGD([params[2]], lr=LR)._scratch.size == optim._BLOCK


@pytest.mark.parametrize("mode", MODES)
def test_scalar_gradient_of_a_0d_parameter(mode):
    """Summed gradients of a 0-d parameter are numpy scalars, not arrays."""
    blocked, whole = Parameter(np.array(1.5)), Parameter(np.array(1.5))
    opt = SGD([blocked], lr=LR, **MODES[mode])
    ref = WholeArraySGD([whole], lr=LR, **MODES[mode])
    for g in (np.float64(0.25), np.float64(-2.0), np.float64(3.5)):
        blocked.grad = whole.grad = g
        opt.step()
        ref.step()
        assert blocked.data.tobytes() == whole.data.tobytes()

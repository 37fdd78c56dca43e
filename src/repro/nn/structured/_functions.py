"""Custom autograd Functions for the structured transforms.

Each wraps a :mod:`repro.core` fast path with its hand-derived backward, so
the layers get ``O(n log n)`` gradients instead of materialising dense
weights.  Every backward here is validated against finite differences in
``tests/properties/test_gradcheck.py``, and skips the input gradient when
``needs_input_grad`` says nothing reads it (the data batch in training).
"""

from __future__ import annotations

import numpy as np

from repro.core.butterfly import (
    butterfly_multiply,
    butterfly_multiply_backward,
    butterfly_multiply_with_intermediates,
)
from repro.core.circulant import circulant_multiply, circulant_multiply_backward
from repro.core.fastfood import fwht
from repro.core.pixelfly import (
    PixelflyPattern,
    block_sparse_multiply,
    block_sparse_multiply_backward,
)
from repro.nn.functional import Function

__all__ = [
    "ButterflyMultiplyFn",
    "BlockSparseMultiplyFn",
    "CirculantMultiplyFn",
    "FWHTFn",
    "PermuteFn",
]


class ButterflyMultiplyFn(Function):
    """``y = B(twiddle) @ x`` rows-wise, O(n log n) forward and backward."""

    def forward(
        self, twiddle: np.ndarray, x: np.ndarray, increasing_stride: bool = True
    ) -> np.ndarray:
        if not any(self.needs_input_grad):
            # No backward will read the level inputs: the multiply that
            # keeps none runs the same level kernel, so the bits match.
            return butterfly_multiply(twiddle, x, increasing_stride)
        y, inputs = butterfly_multiply_with_intermediates(
            twiddle, x, increasing_stride
        )
        self.twiddle = twiddle
        self.inputs = inputs
        self.increasing_stride = increasing_stride
        return y

    def backward(self, grad: np.ndarray):
        grad_twiddle, grad_x = butterfly_multiply_backward(
            self.twiddle,
            self.inputs,
            grad,
            self.increasing_stride,
            need_grad_x=self.needs_input_grad[1],
        )
        return grad_twiddle, grad_x, None


class BlockSparseMultiplyFn(Function):
    """Block-sparse product against a fixed :class:`PixelflyPattern`."""

    def forward(
        self, blocks: np.ndarray, x: np.ndarray, pattern: PixelflyPattern
    ) -> np.ndarray:
        self.blocks = blocks
        self.x = x
        self.pattern = pattern
        return block_sparse_multiply(blocks, pattern, x)

    def backward(self, grad: np.ndarray):
        grad_blocks, grad_x = block_sparse_multiply_backward(
            self.blocks,
            self.pattern,
            self.x,
            grad,
            need_grad_x=self.needs_input_grad[1],
        )
        return grad_blocks, grad_x, None


class CirculantMultiplyFn(Function):
    """FFT-fast circulant product ``y_i = C(c) x_i``."""

    def forward(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.c = c
        self.x = x
        return circulant_multiply(c, x)

    def backward(self, grad: np.ndarray):
        return circulant_multiply_backward(
            self.c, self.x, grad, need_grad_x=self.needs_input_grad[1]
        )


class FWHTFn(Function):
    """Normalised fast Walsh–Hadamard transform along the last axis.

    ``H`` is symmetric and (normalised) involutive, so the backward pass is
    simply the transform applied to the incoming gradient.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return fwht(x, normalized=True)

    def backward(self, grad: np.ndarray):
        return (fwht(grad, normalized=True),)


class PermuteFn(Function):
    """Gather the columns of ``x`` by a permutation: ``x[:, perm]``.

    A permutation repeats no column, so the backward gathers by the inverse
    permutation instead of scatter-adding into zeros.  ``+ 0.0`` keeps the
    scatter's bits: it turns a -0.0 into +0.0, as ``0.0 + g`` did.
    """

    def forward(self, x: np.ndarray, perm: np.ndarray) -> np.ndarray:
        self.perm = perm
        return x[:, perm]

    def backward(self, grad: np.ndarray):
        # Inverted by a scatter, not argsort: argsort's first call pages in
        # its sort kernels, 0.25 MiB of peak RSS in a short process.
        inverse = np.empty_like(self.perm)
        inverse[self.perm] = np.arange(self.perm.size)
        return grad[:, inverse] + 0.0, None

"""Differentiable operations (the Function zoo) and the functional API.

Every op is a :class:`Function` subclass: ``forward`` computes on raw numpy
arrays, ``backward`` returns one gradient per *positional argument* (None
for non-differentiable ones); :meth:`Function.apply` handles Tensor
unwrapping, graph recording, and routing gradients to the tensor arguments.

Backward does only the work whose result is read.  ``apply`` records
``needs_input_grad``, one bool per positional argument, and a backward may
return None for any input whose entry is False — in training the data
batch is such an input.  :class:`MatMul` also hands a transposed weight
(Linear's ``x @ w.T``) its gradient in the weight's own C order, so the
optimiser's in-place updates walk contiguous memory.

At import time this module installs operator methods (``__add__``,
``__matmul__``, ``.relu()``, …) onto :class:`repro.nn.tensor.Tensor`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "Function",
    "unbroadcast",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "matmul",
    "relu",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "abs_",
    "sqrt",
    "sum_",
    "mean",
    "max_",
    "reshape",
    "transpose",
    "getitem",
    "pad_last",
    "log_softmax",
    "softmax",
]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* by summing numpy-broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward(self, *raw_args, **kwargs)`` returning a
    numpy array, and ``backward(self, grad)`` returning a tuple with one
    entry per positional argument of forward (``None`` where no gradient
    flows).  State needed by backward is stashed on ``self``.

    Before ``forward`` runs, :meth:`apply` sets ``self.needs_input_grad``:
    one bool per positional argument, True iff it is a Tensor that requires
    a gradient while grad mode is on.  ``backward`` may return ``None`` for
    an input whose entry is False instead of computing a gradient nobody
    reads.
    """

    def forward(self, *args, **kwargs) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray):
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs) -> Tensor:
        fn = cls()
        raw = [a.data if isinstance(a, Tensor) else a for a in args]
        grad_on = is_grad_enabled()
        fn.needs_input_grad = tuple(
            grad_on and isinstance(a, Tensor) and a.requires_grad for a in args
        )
        out_data = fn.forward(*raw, **kwargs)
        parents = tuple(a for a in args if isinstance(a, Tensor))
        requires = any(fn.needs_input_grad)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            fn._positions = [
                i for i, a in enumerate(args) if isinstance(a, Tensor)
            ]
            out._ctx = fn
            out._parents = parents
        return out

    def parent_grads(self, grad: np.ndarray) -> tuple:
        """Gradients for the Tensor arguments only (engine entry point)."""
        all_grads = self.backward(grad)
        if not isinstance(all_grads, tuple):
            all_grads = (all_grads,)
        return tuple(all_grads[i] for i in self._positions)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


class Add(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return a + b

    def backward(self, grad):
        return unbroadcast(grad, self.a_shape), unbroadcast(grad, self.b_shape)


class Sub(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return a - b

    def backward(self, grad):
        return unbroadcast(grad, self.a_shape), unbroadcast(-grad, self.b_shape)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, grad):
        return (
            unbroadcast(grad * self.b, np.shape(self.a)),
            unbroadcast(grad * self.a, np.shape(self.b)),
        )


class Div(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a / b

    def backward(self, grad):
        return (
            unbroadcast(grad / self.b, np.shape(self.a)),
            unbroadcast(-grad * self.a / (self.b * self.b), np.shape(self.b)),
        )


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    """Elementwise power with a constant (non-tensor) exponent."""

    def forward(self, a, exponent):
        self.a, self.exponent = a, exponent
        return a**exponent

    def backward(self, grad):
        return (grad * self.exponent * self.a ** (self.exponent - 1), None)


class Exp(Function):
    def forward(self, a):
        self.out = np.exp(a)
        return self.out

    def backward(self, grad):
        return (grad * self.out,)


class Log(Function):
    def forward(self, a):
        self.a = a
        return np.log(a)

    def backward(self, grad):
        return (grad / self.a,)


class Sqrt(Function):
    def forward(self, a):
        self.out = np.sqrt(a)
        return self.out

    def backward(self, grad):
        return (grad / (2 * self.out),)


class Abs(Function):
    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad):
        return (grad * self.sign,)


class ReLU(Function):
    def forward(self, a):
        self.mask = a > 0
        # ``np.where(a > 0, a, 0)``'s bits without the select: fmax gives
        # the 0 for a NaN, and with ``a`` first also for a -0.0, where
        # ``maximum`` and ``fmax(0, a)`` keep the NaN or the -0.0
        # (tests/nn/test_scatter_free_bits.py pins it).
        return np.fmax(a, 0)

    def backward(self, grad):
        return (grad * self.mask,)


class Tanh(Function):
    def forward(self, a):
        self.out = np.tanh(a)
        return self.out

    def backward(self, grad):
        return (grad * (1 - self.out * self.out),)


class Sigmoid(Function):
    def forward(self, a):
        self.out = 1.0 / (1.0 + np.exp(-a))
        return self.out

    def backward(self, grad):
        return (grad * self.out * (1 - self.out),)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


class MatMul(Function):
    """Matrix product supporting 1-D/2-D and batched (>2-D) operands.

    Layout rule: when ``b`` is a transposed C-ordered matrix (F-ordered and
    not also C-ordered, as ``w.T`` in ``x @ w.T``) and ``a`` is a C-ordered
    matrix, ``b``'s gradient is formed as ``(grad.T @ a).T`` instead of
    ``a.T @ grad``, so :class:`Transpose` hands ``w`` a C-ordered gradient.
    On OpenBLAS the two give the same bits when ``a`` is C-ordered float64,
    and when it is the float32 data batch at the SHL's 1024-wide weight
    (``tests/nn/test_backward_work.py`` pins both).  They may differ
    for an F-ordered ``a``, such as Fastfood's FWHT output, which
    therefore keeps ``a.T @ grad``, and for a float32 ``a`` (cast by
    numpy) against a ``b`` of a few columns, which takes the rule.
    ``fwht`` keeps its input's memory order, so the F-ordered batch its
    permutation gather hands the second transform reaches this rule F-ordered.
    """

    def forward(self, a, b):
        self.a, self.b = a, b
        return a @ b

    def backward(self, grad):
        a, b = self.a, self.b
        if a.ndim == 1 and b.ndim == 1:
            return grad * b, grad * a
        if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
            return grad @ np.swapaxes(b, -1, -2), np.outer(a, grad)
        if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
            return np.outer(grad, b), np.swapaxes(a, -1, -2) @ grad
        need_a, need_b = self.needs_input_grad
        grad_a = grad_b = None
        if need_a:
            grad_a = unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
        if need_b:
            if (
                a.ndim == b.ndim == 2
                and a.flags.c_contiguous
                and b.flags.f_contiguous
                and not b.flags.c_contiguous
            ):
                grad_b = (grad.T @ a).T
            else:
                grad_b = unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
        return grad_a, grad_b


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Sum(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.shape = a.shape
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        return a.sum(axis=self.axis, keepdims=keepdims)

    def backward(self, grad):
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self.shape).copy(), None, None)


class Mean(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.shape = a.shape
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        if self.axis is None:
            self.count = a.size
        else:
            self.count = int(np.prod([a.shape[i] for i in self.axis]))
        return a.mean(axis=self.axis, keepdims=keepdims)

    def backward(self, grad):
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (
            np.broadcast_to(grad, self.shape).copy() / self.count,
            None,
            None,
        )


class Max(Function):
    """Reduction max; gradient splits evenly among tied maxima."""

    def forward(self, a, axis=None, keepdims=False):
        self.a = a
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.out = a.max(axis=self.axis, keepdims=True)
        return self.out if keepdims else np.squeeze(
            self.out, axis=self.axis if self.axis is not None else None
        )

    def backward(self, grad):
        mask = (self.a == self.out).astype(grad.dtype)
        counts = mask.sum(axis=self.axis, keepdims=True)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        elif self.axis is None and not self.keepdims:
            grad = np.reshape(grad, (1,) * self.a.ndim)
        return (mask / counts * grad, None, None)


# ---------------------------------------------------------------------------
# Shape manipulation & indexing
# ---------------------------------------------------------------------------


class Reshape(Function):
    def forward(self, a, shape):
        self.orig = a.shape
        return a.reshape(shape)

    def backward(self, grad):
        return (grad.reshape(self.orig), None)


class Transpose(Function):
    def forward(self, a, axes=None):
        self.axes = axes
        return np.transpose(a, axes)

    def backward(self, grad):
        if self.axes is None:
            return (np.transpose(grad), None)
        return (np.transpose(grad, np.argsort(self.axes)), None)


def _is_basic(key) -> bool:
    """True iff *key* is basic indexing (ints, slices, ``...``, None),
    which never selects an element twice."""
    return all(
        k is None
        or k is Ellipsis
        or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in (key if isinstance(key, tuple) else (key,))
    )


class GetItem(Function):
    """Indexing/slicing.

    The backward writes the gradient into a zero array: by assignment for
    a basic key, and by a scatter-add for an array key, which may repeat
    an index.  Both store ``0.0 + g``'s bits, so a -0.0 becomes +0.0.
    """

    def forward(self, a, key):
        self.shape = a.shape
        self.key = key
        return a[key]

    def backward(self, grad):
        out = np.zeros(self.shape, dtype=grad.dtype)
        if _is_basic(self.key):
            out[self.key] = grad + 0.0
        else:
            np.add.at(out, self.key, grad)
        return (out, None)


class PadLast(Function):
    """Zero-pad the last axis on the right to a target length."""

    def forward(self, a, target):
        self.orig = a.shape[-1]
        if target < self.orig:
            raise ValueError(
                f"target {target} smaller than current size {self.orig}"
            )
        pad = [(0, 0)] * (a.ndim - 1) + [(0, target - self.orig)]
        return np.pad(a, pad)

    def backward(self, grad):
        return (grad[..., : self.orig], None)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


class LogSoftmax(Function):
    """Numerically stable log-softmax along *axis*."""

    def forward(self, a, axis=-1):
        self.axis = axis
        shifted = a - a.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        self.out = shifted - logsumexp
        return self.out

    def backward(self, grad):
        softmax = np.exp(self.out)
        return (
            grad - softmax * grad.sum(axis=self.axis, keepdims=True),
            None,
        )


# ---------------------------------------------------------------------------
# Functional API
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    return Add.apply(a, b)


def sub(a, b) -> Tensor:
    return Sub.apply(a, b)


def mul(a, b) -> Tensor:
    return Mul.apply(a, b)


def div(a, b) -> Tensor:
    return Div.apply(a, b)


def neg(a) -> Tensor:
    return Neg.apply(a)


def pow_(a, exponent: float) -> Tensor:
    return Pow.apply(a, exponent)


def matmul(a, b) -> Tensor:
    return MatMul.apply(a, b)


def relu(a) -> Tensor:
    return ReLU.apply(a)


def exp(a) -> Tensor:
    return Exp.apply(a)


def log(a) -> Tensor:
    return Log.apply(a)


def sqrt(a) -> Tensor:
    return Sqrt.apply(a)


def abs_(a) -> Tensor:
    return Abs.apply(a)


def tanh(a) -> Tensor:
    return Tanh.apply(a)


def sigmoid(a) -> Tensor:
    return Sigmoid.apply(a)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    return Sum.apply(a, axis, keepdims)


def mean(a, axis=None, keepdims=False) -> Tensor:
    return Mean.apply(a, axis, keepdims)


def max_(a, axis=None, keepdims=False) -> Tensor:
    return Max.apply(a, axis, keepdims)


def reshape(a, shape) -> Tensor:
    return Reshape.apply(a, shape)


def transpose(a, axes=None) -> Tensor:
    return Transpose.apply(a, axes)


def getitem(a, key) -> Tensor:
    return GetItem.apply(a, key)


def pad_last(a, target: int) -> Tensor:
    return PadLast.apply(a, target)


def log_softmax(a, axis=-1) -> Tensor:
    return LogSoftmax.apply(a, axis)


def softmax(a, axis=-1) -> Tensor:
    return exp(log_softmax(a, axis=axis))


# ---------------------------------------------------------------------------
# Install operator sugar on Tensor
# ---------------------------------------------------------------------------


def _install_tensor_methods() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, e: pow_(self, e)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, key: getitem(self, key)
    Tensor.relu = lambda self: relu(self)
    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)
    Tensor.sqrt = lambda self: sqrt(self)
    Tensor.abs = lambda self: abs_(self)
    Tensor.tanh = lambda self: tanh(self)
    Tensor.sigmoid = lambda self: sigmoid(self)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(
        self, axis, keepdims
    )
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(
        self, axis, keepdims
    )
    Tensor.max = lambda self, axis=None, keepdims=False: max_(
        self, axis, keepdims
    )
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape
    )
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.T = property(lambda self: transpose(self))


_install_tensor_methods()

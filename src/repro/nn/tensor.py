"""Reverse-mode autograd tensor.

PyTorch is unavailable in this environment, so the training experiments run
on this from-scratch engine: a :class:`Tensor` wraps a numpy array and
records a backward graph of :class:`~repro.nn.functional.Function`
applications; :meth:`Tensor.backward` walks the graph in reverse topological
order accumulating gradients into leaf tensors.

Design notes
------------
* Gradients are plain numpy arrays (no grad-of-grad support — the paper's
  experiments only need first-order training).
* Broadcasting follows numpy semantics; each Function un-broadcasts its
  input gradients (see :func:`repro.nn.functional.unbroadcast`).
* Operator methods (``+``, ``@``, ``.relu()`` …) are installed onto
  :class:`Tensor` by :mod:`repro.nn.functional` at import time, keeping the
  op zoo in one place.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording (for eval / inference)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """True while graph recording is active."""
    return _GRAD_ENABLED


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __array_priority__ = 1000  # make numpy defer to our reflected ops

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # Backward-graph bookkeeping (set by Function.apply).
        self._ctx = None  # the Function instance that produced this tensor
        self._parents: tuple[Tensor, ...] = ()

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        """True if this tensor was not produced by a recorded Function."""
        return self._ctx is None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad_flag})"

    # -- conversions --------------------------------------------------------

    def item(self) -> float:
        """Python scalar for 1-element tensors."""
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _raise(
            ValueError(f"item() requires a 1-element tensor, got {self.shape}")
        )

    # -- gradient machinery --------------------------------------------------

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        For non-scalar tensors an explicit output gradient must be provided.
        Gradients accumulate (+=) into ``.grad`` of every reachable leaf with
        ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that has no grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.shape}"
            )

        # Reverse topological order over the recorded graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.is_leaf:
                node.grad = (
                    node_grad if node.grad is None else node.grad + node_grad
                )
                continue
            parent_grads = node._ctx.parent_grads(node_grad)
            if len(parent_grads) != len(node._parents):
                raise RuntimeError(
                    f"{type(node._ctx).__name__}.backward returned "
                    f"{len(parent_grads)} gradients for {len(node._parents)} "
                    "inputs"
                )
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad)
                if pgrad.shape != parent.data.shape:
                    raise RuntimeError(
                        f"{type(node._ctx).__name__} produced gradient of "
                        f"shape {pgrad.shape} for input of shape "
                        f"{parent.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad


class Parameter(Tensor):
    """A trainable tensor — ``requires_grad=True`` and float dtype.

    :meth:`drawn` builds one whose initialiser runs on the first read of
    ``.data``.  ``shape``, ``ndim`` and ``size`` answer without drawing,
    so a model that is only lowered to a device never allocates its
    weights.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)

    @classmethod
    def drawn(cls, initialiser, shape: tuple[int, ...], **kwargs) -> "Parameter":
        """A parameter holding ``initialiser(shape, **kwargs)``, drawn on
        the first read of ``.data``.

        The values are the bytes an eager draw gives provided the
        generator in *kwargs* is the parameter's own (each layer derives
        one per parameter in its constructor): nothing else draws from
        it in between.  *initialiser* must be a module-level function so
        that an undrawn parameter pickles; a pickled or deep-copied one
        draws the same bytes.  Assigning ``.data`` first means it is
        never drawn.
        """
        param = cls.__new__(cls)
        param.requires_grad = True
        param.grad = None
        param._ctx = None
        param._parents = ()
        param._draw = (initialiser, tuple(shape), kwargs)
        return param

    @functools.cached_property
    def data(self) -> np.ndarray:
        # Reached only while the instance holds no ``data``, i.e. before
        # the first read of a drawn parameter.  The result is stored as
        # the instance attribute, so every later read is a plain one.
        initialiser, shape, kwargs = self._draw
        values = initialiser(shape, **kwargs)
        if values.shape != shape:
            raise RuntimeError(
                f"{initialiser.__name__} drew shape {values.shape} for a "
                f"parameter of shape {shape}"
            )
        del self._draw
        return values

    @property
    def shape(self) -> tuple[int, ...]:
        data = self.__dict__.get("data")
        return self._draw[1] if data is None else data.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, dtype={self.dtype})"


def _raise(exc: Exception):
    raise exc


# Install the operator / method zoo onto Tensor.  The import is at module
# bottom on purpose: functional.py imports Tensor from here, and by this
# point the class object exists, so the circular import resolves cleanly.
from repro.nn import functional as _functional  # noqa: E402,F401

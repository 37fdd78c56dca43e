"""Standard (unstructured) layers: Linear, activations, containers.

``Linear`` is the `torch.nn.Linear` stand-in every figure benchmarks
against; the structured replacements live in :mod:`repro.nn.structured`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter, Tensor
from repro.utils import as_rng, derive_rng

__all__ = [
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
    "Dropout",
    "Sequential",
    "check_input_width",
    "BatchNorm1d",
    "LayerNorm",
]


class Linear(Module):
    """Dense affine layer ``y = x W^T + b`` (the paper's baseline)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = as_rng(seed)
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_features, in_features),
                fan_in=in_features,
                rng=derive_rng(rng, "weight"),
                gain=1.0,  # PyTorch Linear uses kaiming_uniform with a=sqrt(5)
            )
        )
        self.bias = (
            Parameter(
                init.uniform_fan_in(
                    (out_features,), in_features, rng=derive_rng(rng, "bias")
                )
            )
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"bias={self.bias is not None}"
        )


class ReLU(Module):
    """Rectified linear unit (the paper's Table 3 activation)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Identity(Module):
    """Pass-through layer (useful as an ablation placeholder)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Flatten all but the leading (batch) dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return F.reshape(x, (x.shape[0], -1))


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(
        self, p: float = 0.5, seed: int | np.random.Generator | None = 0
    ) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = as_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, self.training)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
        self._order = [f"layer{i}" for i in range(len(modules))]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __getitem__(self, idx: int) -> Module:
        return getattr(self, self._order[idx])

    def __len__(self) -> int:
        return len(self._order)


def check_input_width(layer: Module, width: int) -> None:
    """Raise ValueError unless weight *layer* takes *width* input features.

    The device lowerings walk a model with a running width and call this
    at every weight layer, so a model whose widths do not chain fails
    when it is lowered rather than inside numpy at its first forward.
    The square Pixelfly, Fastfood and Circulant layers call their one
    width ``features``.
    """
    expected = getattr(layer, "in_features", None)
    if expected is None:
        expected = layer.features
    if expected != width:
        raise ValueError(
            f"{type(layer).__name__} takes {expected} input features, "
            f"but its input has {width}"
        )


class BatchNorm1d(Module):
    """Batch normalisation over the feature axis of ``(batch, features)``.

    Training mode normalises with batch statistics and updates running
    estimates (exponential moving average, PyTorch semantics); eval mode
    uses the running estimates.  Gamma/beta are learnable.
    """

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        # Running statistics are buffers, not parameters.
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected (batch, {self.num_features}), got {x.shape}"
            )
        if self.training:
            mean = F.mean(x, axis=0)
            centred = x - mean
            var = F.mean(centred * centred, axis=0)
            batch = x.shape[0]
            # Update running stats with the unbiased variance (PyTorch).
            unbiased = var.data * batch / max(batch - 1, 1)
            self.running_mean *= 1 - self.momentum
            self.running_mean += self.momentum * mean.data
            self.running_var *= 1 - self.momentum
            self.running_var += self.momentum * unbiased
            inv_std = (var + self.eps) ** -0.5
            normalised = centred * inv_std
        else:
            normalised = (x - self.running_mean) * (
                1.0 / np.sqrt(self.running_var + self.eps)
            )
        return normalised * self.weight + self.bias

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}, eps={self.eps}"


class LayerNorm(Module):
    """Layer normalisation over the last axis, with learnable gamma/beta."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected trailing dim {self.num_features}, got {x.shape}"
            )
        mean = F.mean(x, axis=-1, keepdims=True)
        centred = x - mean
        var = F.mean(centred * centred, axis=-1, keepdims=True)
        normalised = centred * (var + self.eps) ** -0.5
        return normalised * self.weight + self.bias

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}, eps={self.eps}"

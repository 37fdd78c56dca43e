"""Fastfood linear layer (Table 4 baseline).

``y = S H G P H B x`` with learnable diagonals ``S, G, B`` (``3 n``
parameters) and fixed Hadamards/permutation.  Composed from autograd
primitives plus the :class:`FWHTFn` custom op, so gradients need no bespoke
derivation here.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastfood import FastfoodTransform
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.structured._functions import FWHTFn, PermuteFn
from repro.nn.tensor import Parameter, Tensor
from repro.utils import as_rng, check_power_of_two, derive_rng

__all__ = ["FastfoodLinear"]


class FastfoodLinear(Module):
    """Affine layer with a fastfood-parameterised square weight."""

    def __init__(
        self,
        features: int,
        bias: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        check_power_of_two(features, "features (fastfood requires powers of two)")
        self.features = features
        rng = as_rng(seed)
        # Learnable diagonals, initialised per Le et al.: B Rademacher,
        # G Gaussian, S chi-scaled by ||G||.
        b = derive_rng(rng, "b").choice([-1.0, 1.0], size=features)
        g = derive_rng(rng, "g").standard_normal(features)
        s_raw = np.sqrt(derive_rng(rng, "s").chisquare(df=features, size=features))
        s = s_raw / np.sqrt((g**2).sum())
        self.b = Parameter(b)
        self.g = Parameter(g)
        self.s = Parameter(s)
        # Fixed permutation between the Hadamards (not learnable).
        self.perm = derive_rng(rng, "perm").permutation(features)
        self.bias = (
            Parameter.drawn(
                init.uniform_fan_in,
                (features,),
                fan_in=features,
                rng=derive_rng(rng, "bias"),
            )
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.features:
            raise ValueError(
                f"expected {self.features} input features, got {x.shape[-1]}"
            )
        squeeze = x.ndim == 1
        if squeeze:
            x = F.reshape(x, (1, -1))
        y = x * self.b
        y = FWHTFn.apply(y)
        y = PermuteFn.apply(y, self.perm)
        y = y * self.g
        y = FWHTFn.apply(y)
        y = y * self.s
        if self.bias is not None:
            y = y + self.bias
        if squeeze:
            y = F.reshape(y, (self.features,))
        return y

    def weight_dense(self) -> np.ndarray:
        """Dense equivalent weight (for tests/inspection)."""
        transform = FastfoodTransform(
            s=self.s.data, g=self.g.data, b=self.b.data, perm=self.perm
        )
        return transform.to_dense()

    def extra_repr(self) -> str:
        return f"features={self.features}, bias={self.bias is not None}"

"""Circulant linear layer (Table 4 baseline): ``n`` weight parameters."""

from __future__ import annotations

import numpy as np

from repro.core.circulant import circulant_to_dense
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.structured._functions import CirculantMultiplyFn
from repro.nn.tensor import Parameter, Tensor
from repro.utils import as_rng, derive_rng

__all__ = ["CirculantLinear"]


class CirculantLinear(Module):
    """Affine layer whose square weight is circulant (FFT-fast apply)."""

    def __init__(
        self,
        features: int,
        bias: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        if features <= 0:
            raise ValueError(f"features must be positive, got {features}")
        self.features = features
        rng = as_rng(seed)
        # Variance 1/n keeps ||Cx|| ~ ||x|| at init (rows have n entries).
        self.c = Parameter.drawn(
            init.normal,
            (features,),
            std=1.0 / np.sqrt(features),
            rng=derive_rng(rng, "c"),
        )
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
        out = CirculantMultiplyFn.apply(self.c, x)
        if self.bias is not None:
            out = out + self.bias
        if squeeze:
            out = F.reshape(out, (self.features,))
        return out

    def weight_dense(self) -> np.ndarray:
        """Dense circulant weight (for tests/inspection)."""
        return circulant_to_dense(self.c.data)

    def extra_repr(self) -> str:
        return f"features={self.features}, bias={self.bias is not None}"

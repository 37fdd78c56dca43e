"""Low-rank linear layer ``W = U V^T`` (Table 4 baseline, rank 1 there)."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter, Tensor
from repro.utils import as_rng, derive_rng

__all__ = ["LowRankLinear"]


class LowRankLinear(Module):
    """Affine layer with a rank-*r* factorised weight (``(in + out) r`` params)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rank: int = 1,
        bias: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("features must be positive")
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.in_features = in_features
        self.out_features = out_features
        self.rank = rank
        rng = as_rng(seed)
        self.u = Parameter.drawn(
            init.kaiming_uniform,
            (out_features, rank),
            fan_in=rank,
            rng=derive_rng(rng, "u"),
        )
        self.v = Parameter.drawn(
            init.kaiming_uniform,
            (in_features, rank),
            fan_in=in_features,
            rng=derive_rng(rng, "v"),
        )
        self.bias = (
            Parameter.drawn(
                init.uniform_fan_in,
                (out_features,),
                fan_in=in_features,
                rng=derive_rng(rng, "bias"),
            )
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {x.shape[-1]}"
            )
        # (x V) U^T keeps cost O((in + out) r) per row.
        out = F.matmul(F.matmul(x, self.v), self.u.T)
        if self.bias is not None:
            out = out + self.bias
        return out

    def weight_dense(self) -> np.ndarray:
        """Dense ``(out, in)`` weight (for tests/inspection)."""
        return self.u.data @ self.v.data.T

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"rank={self.rank}, bias={self.bias is not None}"
        )

"""Pixelated-butterfly linear layer (Chen et al. 2021; paper Section 2.3.2).

Weight ``W = scatter(blocks, flat-block-butterfly mask) + U V^T`` with an
optional residual connection (the "flat butterfly approximates the product
by a sum *with residual connections*" of the paper's Fig 2).  Exposes the
three hyper-parameters the paper sweeps in Table 5: ``butterfly_size``,
``block_size`` and ``rank``.

Unlike :class:`~repro.nn.structured.butterfly.ButterflyLinear`, this layer
*requires* power-of-two feature sizes — the reason the paper could not run
pixelfly on MNIST (784 inputs).
"""

from __future__ import annotations

import numpy as np

from repro.core.pixelfly import PixelflyPattern, blocks_to_dense, pixelfly_pattern
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.structured._functions import BlockSparseMultiplyFn
from repro.nn.tensor import Parameter, Tensor
from repro.utils import as_rng, check_power_of_two, derive_rng

__all__ = ["PixelflyLinear"]


class PixelflyLinear(Module):
    """Affine layer with a pixelfly (block-sparse + low-rank) weight."""

    def __init__(
        self,
        features: int,
        block_size: int = 32,
        butterfly_size: int | None = None,
        rank: int = 1,
        bias: bool = True,
        residual: bool = False,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        check_power_of_two(
            features, "features (pixelfly requires powers of two)"
        )
        self.features = features
        self.residual = residual
        self.pattern: PixelflyPattern = pixelfly_pattern(
            features, block_size=block_size, butterfly_size=butterfly_size,
            rank=rank,
        )
        rng = as_rng(seed)
        # Fan-in of the sparse term = active blocks per row * block size.
        fan_in = self.pattern.blocks_per_row * block_size
        self.blocks = Parameter.drawn(
            init.kaiming_uniform,
            (self.pattern.n_blocks, block_size, block_size),
            fan_in=fan_in,
            rng=derive_rng(rng, "blocks"),
        )
        if rank > 0:
            scale = 1.0 / np.sqrt(features * max(rank, 1))
            self.u = Parameter.drawn(
                init.normal, (features, rank), std=scale,
                rng=derive_rng(rng, "u"),
            )
            self.v = Parameter.drawn(
                init.normal, (features, rank), std=scale,
                rng=derive_rng(rng, "v"),
            )
        else:
            self.u = None
            self.v = None
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

    @property
    def block_size(self) -> int:
        return self.pattern.block_size

    @property
    def butterfly_size(self) -> int:
        return self.pattern.butterfly_size

    @property
    def rank(self) -> int:
        return self.pattern.rank

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.features:
            raise ValueError(
                f"expected {self.features} input features, got {x.shape[-1]}"
            )
        squeeze = x.ndim == 1
        if squeeze:
            x = F.reshape(x, (1, -1))
        out = BlockSparseMultiplyFn.apply(self.blocks, x, self.pattern)
        if self.u is not None:
            out = out + F.matmul(F.matmul(x, self.v), self.u.T)
        if self.residual:
            out = out + x
        if self.bias is not None:
            out = out + self.bias
        if squeeze:
            out = F.reshape(out, (self.features,))
        return out

    def weight_dense(self) -> np.ndarray:
        """Dense equivalent weight (for tests/inspection)."""
        w = blocks_to_dense(self.blocks.data, self.pattern)
        if self.u is not None:
            w = w + self.u.data @ self.v.data.T
        if self.residual:
            w = w + np.eye(self.features, dtype=w.dtype)
        return w

    def extra_repr(self) -> str:
        return (
            f"features={self.features}, block_size={self.block_size}, "
            f"butterfly_size={self.butterfly_size}, rank={self.rank}, "
            f"blocks={self.pattern.n_blocks}, residual={self.residual}"
        )

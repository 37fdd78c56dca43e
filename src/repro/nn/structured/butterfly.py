"""Learnable butterfly linear layer (Dao et al. 2019; paper Section 2.3.1).

Replaces an ``in -> out`` dense layer by a single learnable butterfly matrix
of size ``n = 2**ceil(log2(max(in, out)))`` with ``2 n log2 n`` parameters:
the input is zero-padded to ``n``, pushed through the butterfly in
``O(batch * n log n)``, and the first ``out`` outputs are kept — the same
rectangular handling as Dao's reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.butterfly import butterfly_to_dense
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.structured._functions import ButterflyMultiplyFn
from repro.nn.tensor import Parameter, Tensor
from repro.utils import as_rng, derive_rng, log2_int

__all__ = ["ButterflyLinear"]


class ButterflyLinear(Module):
    """Affine layer whose weight is a butterfly factorization.

    Parameters
    ----------
    in_features, out_features:
        Logical layer shape; internally rounded up to a power of two.
    bias:
        Add a learnable output bias (default True, like ``nn.Linear``).
    increasing_stride:
        Stride schedule of the first butterfly (both orders span the same
        matrix class; exposed for the ablation benchmarks).
    nblocks:
        Number of butterflies multiplied together (Dao's ``nblocks``):
        ``W = B_nblocks ... B_2 B_1``, with alternating stride order so
        consecutive blocks compose like an FFT/IFFT pair.  One butterfly
        spans only a subset of matrices; products widen the expressible
        class at ``nblocks x 2 n log2 n`` parameters.

    Twiddles start as random 2x2 rotations, which keeps activations
    norm-preserving at init (Dao's recipe).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        increasing_stride: bool = True,
        nblocks: int = 1,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("features must be positive")
        if nblocks <= 0:
            raise ValueError(f"nblocks must be positive, got {nblocks}")
        self.in_features = in_features
        self.out_features = out_features
        self.increasing_stride = increasing_stride
        self.nblocks = nblocks
        self.n = 1 << (max(in_features, out_features) - 1).bit_length()
        rng = as_rng(seed)
        self._twiddle_names: list[str] = []
        for block in range(nblocks):
            twiddle = Parameter.drawn(
                init.rotations,
                (log2_int(self.n), self.n // 2, 2, 2),
                rng=derive_rng(rng, "twiddle", block),
            )
            name = "twiddle" if block == 0 else f"twiddle{block}"
            setattr(self, name, twiddle)
            self._twiddle_names.append(name)
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
        squeeze = x.ndim == 1
        if squeeze:
            x = F.reshape(x, (1, -1))
        if self.in_features < self.n:
            x = F.pad_last(x, self.n)
        out = x
        for block, name in enumerate(self._twiddle_names):
            # Alternate the stride schedule across blocks (Dao's layout).
            increasing = self.increasing_stride ^ (block % 2 == 1)
            out = ButterflyMultiplyFn.apply(
                getattr(self, name), out, increasing
            )
        if self.out_features < self.n:
            out = F.getitem(out, (slice(None), slice(0, self.out_features)))
        if self.bias is not None:
            out = out + self.bias
        if squeeze:
            out = F.reshape(out, (self.out_features,))
        return out

    def weight_dense(self) -> np.ndarray:
        """Dense ``(out, in)`` equivalent weight (for tests/inspection)."""
        full = np.eye(self.n)
        for block, name in enumerate(self._twiddle_names):
            increasing = self.increasing_stride ^ (block % 2 == 1)
            full = butterfly_to_dense(
                getattr(self, name).data, increasing
            ) @ full
        return full[: self.out_features, : self.in_features]

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"n={self.n}, nblocks={self.nblocks}, bias={self.bias is not None}"
        )

"""Butterfly factorizations — the paper's primary contribution.

This package contains the structured-matrix algebra the paper ports to the
IPU, as plain-numpy reference implementations:

* :mod:`repro.core.permutations` — the bit-reversal permutation of the
  Cooley–Tukey recursion (Eq. 1/2 of the paper).
* :mod:`repro.core.butterfly` — butterfly factors, the ``O(N log N)``
  multiply, dense expansion, and FFT twiddles (Fig 1).
* :mod:`repro.core.pixelfly` — flat-block-butterfly masks and the pixelated
  butterfly decomposition (block-sparse + low-rank; Fig 2).
* :mod:`repro.core.fastfood`, :mod:`repro.core.circulant`,
  :mod:`repro.core.lowrank` — the baseline structured parameterisations of
  Table 4 (Fastfood, Circulant, Low-rank).
* :mod:`repro.core.compression` — parameter counting and compression ratios.

The differentiable layer wrappers live in :mod:`repro.nn.structured`; they
delegate their numerics to the functions here, so every layer is checkable
against an independent dense expansion.
"""

from repro.core.permutations import bit_reversal_permutation
from repro.core.butterfly import (
    random_twiddle,
    identity_twiddle,
    orthogonal_twiddle,
    fft_twiddle,
    butterfly_multiply,
    butterfly_factor_dense,
    butterfly_to_dense,
    butterfly_param_count,
)
from repro.core.pixelfly import (
    flat_butterfly_mask,
    block_butterfly_mask,
    PixelflyPattern,
    pixelfly_pattern,
    block_sparse_multiply,
    blocks_to_dense,
    pixelfly_param_count,
)
from repro.core.fastfood import (
    fwht,
    fwht_matrix,
    FastfoodTransform,
    fastfood_param_count,
)
from repro.core.circulant import (
    circulant_multiply,
    circulant_to_dense,
    circulant_param_count,
)
from repro.core.lowrank import lowrank_to_dense, lowrank_param_count
from repro.core.compression import compression_ratio, CompressionReport

__all__ = [
    "bit_reversal_permutation",
    "random_twiddle",
    "identity_twiddle",
    "orthogonal_twiddle",
    "fft_twiddle",
    "butterfly_multiply",
    "butterfly_factor_dense",
    "butterfly_to_dense",
    "butterfly_param_count",
    "flat_butterfly_mask",
    "block_butterfly_mask",
    "PixelflyPattern",
    "pixelfly_pattern",
    "block_sparse_multiply",
    "blocks_to_dense",
    "pixelfly_param_count",
    "fwht",
    "fwht_matrix",
    "FastfoodTransform",
    "fastfood_param_count",
    "circulant_multiply",
    "circulant_to_dense",
    "circulant_param_count",
    "lowrank_to_dense",
    "lowrank_param_count",
    "compression_ratio",
    "CompressionReport",
]

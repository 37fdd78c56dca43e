"""The bit-reversal permutation underlying Cooley–Tukey butterflies.

Equation 2 of the paper factors a structured transform as block-diagonal
mixing matrices times "some permutation"; for the FFT special case that
permutation is even/odd separation, whose recursive closure is the
bit-reversal permutation.  It is built here as an index vector
(``perm[i]`` = source index of output ``i``, i.e. ``y = x[perm]``); the
tests use it with :func:`repro.core.butterfly.fft_twiddle` to check that a
butterfly computes the DFT.
"""

from __future__ import annotations

import numpy as np

from repro.utils import log2_int

__all__ = ["bit_reversal_permutation"]


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Bit-reversal permutation of length *n* (power of two).

    ``perm[i]`` is ``i`` with its ``log2(n)`` bits reversed.  Applying it to
    the input of a decimation-in-time butterfly network yields the DFT
    (see :func:`repro.core.butterfly.fft_twiddle`).
    """
    log_n = log2_int(n)
    perm = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(log_n):
        rev = (rev << 1) | (perm & 1)
        perm >>= 1
    return rev

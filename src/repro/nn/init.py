"""Weight initialisers.

Matches the fan-based recipes PyTorch's ``nn.Linear`` uses, so the baseline
SHL model trains under the paper's Table 3 hyper-parameters without extra
tuning.  Each takes the array's shape first and its generator
explicitly, the form :meth:`repro.nn.Parameter.drawn` calls.
"""

from __future__ import annotations

import numpy as np

from repro.core.butterfly import orthogonal_twiddle
from repro.utils import as_rng

__all__ = [
    "kaiming_uniform",
    "uniform_fan_in",
    "normal",
    "rotations",
]


def kaiming_uniform(
    shape: tuple[int, ...],
    fan_in: int,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """Kaiming uniform at unit gain: ``U(-bound, bound)``,
    ``bound = sqrt(3/fan_in)``."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    rng = as_rng(rng)
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform_fan_in(
    shape: tuple[int, ...],
    fan_in: int,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """PyTorch's default bias init: ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``."""
    rng = as_rng(rng)
    bound = 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)


def normal(
    shape: tuple[int, ...],
    std: float,
    rng: int | np.random.Generator | None,
) -> np.ndarray:
    """Zero-mean Gaussian with standard deviation *std*."""
    rng = as_rng(rng)
    return rng.standard_normal(shape) * std


def rotations(
    shape: tuple[int, ...], rng: int | np.random.Generator | None
) -> np.ndarray:
    """Butterfly twiddles of random 2x2 rotations for *shape*
    ``(log2 n, n // 2, 2, 2)`` (:func:`~repro.core.butterfly.orthogonal_twiddle`),
    so a butterfly layer starts norm-preserving (Dao's recipe)."""
    return orthogonal_twiddle(1 << shape[0], seed=rng)

"""Weight initialisers.

Matches the fan-based recipes PyTorch's ``nn.Linear`` uses, so the baseline
SHL model trains under the paper's Table 3 hyper-parameters without extra
tuning.
"""

from __future__ import annotations

import numpy as np

from repro.utils import as_rng

__all__ = [
    "kaiming_uniform",
    "uniform_fan_in",
    "zeros",
    "normal",
]


def kaiming_uniform(
    shape: tuple[int, ...],
    fan_in: int,
    rng: int | np.random.Generator | None = 0,
    gain: float = np.sqrt(2.0),
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """He/Kaiming uniform: ``U(-bound, bound)``, ``bound = gain*sqrt(3/fan_in)``."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    rng = as_rng(rng)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def uniform_fan_in(
    shape: tuple[int, ...],
    fan_in: int,
    rng: int | np.random.Generator | None = 0,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """PyTorch's default bias init: ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``."""
    rng = as_rng(rng)
    bound = 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape: tuple[int, ...], dtype: np.dtype = np.float64) -> np.ndarray:
    """All-zero initialiser."""
    return np.zeros(shape, dtype=dtype)


def normal(
    shape: tuple[int, ...],
    std: float = 1.0,
    rng: int | np.random.Generator | None = 0,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Zero-mean Gaussian with standard deviation *std*."""
    rng = as_rng(rng)
    return (rng.standard_normal(shape) * std).astype(dtype)

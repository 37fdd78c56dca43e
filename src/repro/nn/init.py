"""Weight initialisers.

Each takes the array's shape first and its generator explicitly, the
form :meth:`repro.nn.Parameter.drawn` calls.  What each draws, and how
it compares with PyTorch:

* :func:`kaiming_uniform` draws ``U(-sqrt(3/fan_in), sqrt(3/fan_in))``,
  Kaiming uniform at unit gain (variance ``1/fan_in``), for the dense,
  low-rank and pixelfly block weights.  This is *not* PyTorch's
  ``nn.Linear`` weight default: ``kaiming_uniform_(a=sqrt(5))`` has
  gain ``sqrt(1/3)`` and draws ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``, a
  range sqrt(3) narrower.
* :func:`uniform_fan_in` draws ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``,
  PyTorch's ``nn.Linear`` bias default, for every layer's bias.
* :func:`normal` draws a zero-mean Gaussian of the given standard
  deviation, for the circulant vector and pixelfly's low-rank factors.
* :func:`rotations` draws butterfly twiddles of random 2x2 rotations
  (Dao's recipe), which PyTorch has no counterpart for.

Drawing PyTorch's weight default instead would move every initial and
trained bit, and with them the trained numbers of Tables 4 and 5.
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

"""Planted bugs for exercising the fuzzer itself.

The acceptance test for a differential fuzzer is that it *finds things*:
each hook here re-introduces a known-wrong behavior behind a context
manager, so tests (and ``python -m repro fuzz --plant NAME``) can assert
the oracles catch it and the shrinker reduces the trigger to a tiny
reproducer.  Nothing in this module runs in production paths — the
patches live only inside the ``with`` block.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.nn import optim
from repro.nn.structured.butterfly import ButterflyLinear

__all__ = ["PLANTS", "plant"]


@contextlib.contextmanager
def _plant_nesterov():
    """Re-introduce the pre-PR-6 nesterov update ``(1 + mu) * v``.

    Wrong from the second step on (the formulas coincide while
    ``v == g``); caught by the ``optimizer_reference`` oracle.
    """
    original = optim._nesterov_direction

    def buggy(grad, momentum, velocity):
        return (1.0 + momentum) * velocity

    optim._nesterov_direction = buggy
    try:
        yield
    finally:
        optim._nesterov_direction = original


@contextlib.contextmanager
def _plant_butterfly_scale():
    """Mis-scale ``ButterflyLinear.weight_dense`` by one part in 1e4.

    The factored forward path is untouched, so the materialised weight
    no longer describes the layer — caught by ``forward_dense`` /
    ``metamorphic_probe`` on any case containing a butterfly layer.
    """
    original = ButterflyLinear.weight_dense

    def skewed(self) -> np.ndarray:
        return original(self) * (1.0 + 1e-4)

    ButterflyLinear.weight_dense = skewed
    try:
        yield
    finally:
        ButterflyLinear.weight_dense = original


#: Registered plants: name -> context-manager factory.
PLANTS = {
    "nesterov": _plant_nesterov,
    "butterfly-scale": _plant_butterfly_scale,
}


def plant(name: str):
    """The named planted-bug context manager."""
    try:
        return PLANTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown plant {name!r}; choose from {', '.join(PLANTS)}"
        ) from None

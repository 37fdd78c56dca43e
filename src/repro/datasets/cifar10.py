"""Synthetic CIFAR-10 stand-in (grayscale, 1024 = 32 x 32 pixels).

The paper's SHL benchmark (following Thomas et al. 2018 / Dao et al. 2019)
uses *grayscale* CIFAR-10, i.e. 1024-dimensional inputs — that is how the
baseline's ``N_params = 1 059 850`` decodes exactly (see DESIGN.md §5).
This module provides train/test splits of the synthetic generative model at
those dimensions.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import SyntheticSpec, make_classification
from repro.nn.data import ArrayDataset
from repro.utils import as_rng

__all__ = ["CIFAR10_DIM", "CIFAR10_CLASSES", "cifar10_spec", "load_cifar10"]

CIFAR10_DIM = 1024  # 32 x 32 grayscale
CIFAR10_CLASSES = 10


def cifar10_spec() -> SyntheticSpec:
    """The synthetic-CIFAR generative spec used by the Table 4 experiment."""
    return SyntheticSpec(
        dim=CIFAR10_DIM,
        n_classes=CIFAR10_CLASSES,
        support_size=48,
        signal=1.0,
        noise=0.35,
        butterfly_mixing=True,
    )


def load_cifar10(
    n_train: int = 6000,
    n_test: int = 2000,
    seed: int | np.random.Generator = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Deterministic (train, test) synthetic CIFAR-10 splits.

    Train and test are drawn from the same generative model with the same
    planted transform but independent sample streams.
    """
    rng = as_rng(seed)
    spec = cifar10_spec()
    # Both splits see identical parent generator state, so they share the
    # planted transform and class supports; the split index separates the
    # sample streams.
    parent_entropy = int(rng.integers(0, 2**31))
    train = make_classification(
        n_train, spec, seed=np.random.default_rng(parent_entropy), split=0
    )
    test = make_classification(
        n_test, spec, seed=np.random.default_rng(parent_entropy), split=1
    )
    return train, test

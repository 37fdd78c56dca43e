"""Synthetic MNIST stand-in (784 = 28 x 28 pixels).

MNIST's feature count is *not* a power of two — which is precisely why the
paper could not run pixelfly on it ("the requirements of the matrix sizes
being a power of two").  The generator therefore uses a random orthogonal
mixing transform instead of a butterfly, and the MNIST experiments exercise
the rectangular/padding paths of the structured layers.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import SyntheticSpec, make_classification
from repro.nn.data import ArrayDataset
from repro.utils import as_rng

__all__ = ["MNIST_DIM", "MNIST_CLASSES", "mnist_spec", "load_mnist"]

MNIST_DIM = 784  # 28 x 28 — deliberately not a power of two
MNIST_CLASSES = 10


def mnist_spec() -> SyntheticSpec:
    """The synthetic-MNIST generative spec (easier task than CIFAR)."""
    return SyntheticSpec(
        dim=MNIST_DIM,
        n_classes=MNIST_CLASSES,
        support_size=40,
        signal=1.2,
        noise=0.3,
        butterfly_mixing=False,  # 784 is not a power of two
    )


def load_mnist(
    n_train: int = 6000,
    n_test: int = 2000,
    seed: int | np.random.Generator = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Deterministic (train, test) synthetic MNIST splits."""
    rng = as_rng(seed)
    spec = mnist_spec()
    parent_entropy = int(rng.integers(0, 2**31))
    train = make_classification(
        n_train, spec, seed=np.random.default_rng(parent_entropy), split=0
    )
    test = make_classification(
        n_test, spec, seed=np.random.default_rng(parent_entropy), split=1
    )
    return train, test

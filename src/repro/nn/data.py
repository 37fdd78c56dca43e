"""Datasets, loaders and splits.

Mirrors the paper's data handling: mini-batches of 50, a 15 % validation
split carved from the training set (Table 3), deterministic under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.utils import as_rng

__all__ = ["ArrayDataset", "DataLoader", "train_val_split"]


@dataclass
class ArrayDataset:
    """A supervised dataset held as parallel numpy arrays."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"x and y lengths differ: {len(self.x)} vs {len(self.y)}"
            )

    def __len__(self) -> int:
        return len(self.x)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Dataset restricted to *indices*.

        Integer-array indexing copies: the subset owns new arrays of
        ``len(indices)`` rows.
        """
        return ArrayDataset(self.x[indices], self.y[indices])


def train_val_split(
    dataset: ArrayDataset,
    val_fraction: float = 0.15,
    seed: int | np.random.Generator | None = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Shuffle and split off a validation fraction (paper: 15 %)."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    rng = as_rng(seed)
    n = len(dataset)
    perm = rng.permutation(n)
    n_val = int(round(val_fraction * n))
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Iterating yields ``(x_batch, y_batch)`` numpy pairs.  Reshuffles each
    epoch from its own generator so epochs differ but runs are reproducible.

    The seed is expanded into a *spawned* child stream rather than used
    directly: experiment drivers routinely pass one seed (or one
    generator) to both :func:`train_val_split` and their loaders, and
    with the same stream on both sides the validation-split permutation
    and the first epoch's shuffle would be the *same* permutation.  This
    holds for every accepted seed type — an ``np.random.Generator`` is
    spawned from just like an integer or ``None``, so handing a shared
    generator to several loaders gives each an independent stream while
    leaving the caller's generator untouched.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 50,
        shuffle: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        if isinstance(seed, np.random.Generator):
            self.rng = seed.spawn(1)[0]
        else:
            self.rng = np.random.default_rng(
                np.random.SeedSequence(seed).spawn(1)[0]
            )

    def __len__(self) -> int:
        n = len(self.dataset)
        return (n + self.batch_size - 1) // self.batch_size

    def rng_state(self) -> dict:
        """Snapshot of the shuffle stream (for checkpoint/resume).

        The returned dict is the underlying bit generator's state; restoring
        it with :meth:`set_rng_state` makes subsequent epoch permutations
        bit-identical to the run the snapshot was taken from.
        """
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a shuffle-stream snapshot from :meth:`rng_state`."""
        self.rng.bit_generator.state = state

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.x[idx], self.dataset.y[idx]

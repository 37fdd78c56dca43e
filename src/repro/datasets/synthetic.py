"""Synthetic image-classification generator (CIFAR-10 / MNIST stand-in).

The real datasets are unavailable offline, so Table 4's training runs use a
generative model engineered to exercise the *same mechanism* that separates
the structured methods on real data: the expressivity of the hidden
transform.

Generative model
----------------
* A **planted orthogonal butterfly** ``D`` (random 2x2 rotations) plays the
  role of the unknown "right transform" for the data.
* Each class ``c`` owns a sparse **support set** ``S_c`` of ``k`` latent
  coordinates.  A sample of class ``c`` is ``x = D z + noise`` where ``z``
  has *random signs* on ``S_c`` (class means are therefore ~zero: a linear
  model on raw pixels is near chance) plus background noise everywhere.
* Detecting the class requires (i) rotating back by ``~D^T`` and (ii)
  rectifying — exactly what ``ReLU(W x)`` with a learned ``W`` provides.

Consequences, by construction rather than by fiat:

* **Dense baseline** and **butterfly** (same family as ``D``) can represent
  the un-mixing transform → high accuracy.
* **Pixelfly** approximates it via block-sparse + low-rank → close behind.
* **Fastfood** adapts only three diagonals around fixed Hadamards →
  partial recovery.
* **Circulant** is confined to convolutions, which cannot represent a
  generic butterfly rotation → weak.
* **Rank-1** collapses the input to one scalar → near the class prior.

This reproduces Table 4's accuracy *ordering* with the paper's own causal
story (structured-matrix expressivity), which is what the substitution must
preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.butterfly import (
    butterfly_multiply,
    butterfly_to_dense,
    orthogonal_twiddle,
)
from repro.nn.data import ArrayDataset
from repro.utils import as_rng, check_power_of_two, derive_rng

__all__ = ["SyntheticSpec", "make_classification", "planted_transform"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic classification task."""

    dim: int
    n_classes: int = 10
    support_size: int = 48
    signal: float = 1.0
    noise: float = 0.35
    #: If True the planted mixing transform is an orthogonal butterfly
    #: (power-of-two dims only); otherwise a random orthogonal matrix.
    butterfly_mixing: bool = True


def planted_transform(
    spec: SyntheticSpec, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """The dense mixing matrix ``D`` used by the generator."""
    rng = as_rng(seed)
    mix_rng = derive_rng(rng, "mix")  # first child stream, see below
    if spec.butterfly_mixing:
        check_power_of_two(spec.dim, "dim (butterfly mixing)")
        return butterfly_to_dense(orthogonal_twiddle(spec.dim, seed=mix_rng))
    # Random orthogonal via QR.
    a = mix_rng.standard_normal((spec.dim, spec.dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def make_classification(
    n_samples: int,
    spec: SyntheticSpec,
    seed: int | np.random.Generator = 0,
    split: int = 0,
) -> ArrayDataset:
    """Sample a dataset from the planted-support generative model.

    Returns float32 inputs of shape ``(n_samples, dim)`` and int64 labels.
    Deterministic for a given (seed, spec, n_samples, split).  Two calls
    with the same seed but different *split* values share the planted
    transform and class supports (the same "world") while drawing
    independent samples — how train/test splits are generated.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if spec.support_size <= 0 or spec.support_size > spec.dim:
        raise ValueError(
            f"support_size must be in [1, dim], got {spec.support_size}"
        )
    rng = as_rng(seed)
    # Derivation order matters for determinism: "mix" must be the first
    # child stream so it matches planted_transform() on the same seed.
    mix_rng = derive_rng(rng, "mix")
    class_rng = derive_rng(rng, "supports")
    sample_rng = derive_rng(rng, "samples", split)

    # Disjoint-ish class supports: sample without replacement per class from
    # a shuffled pool so classes remain distinguishable.
    supports = np.empty((spec.n_classes, spec.support_size), dtype=np.int64)
    pool = class_rng.permutation(spec.dim)
    per = spec.dim // spec.n_classes
    for c in range(spec.n_classes):
        if spec.support_size <= per:
            supports[c] = pool[c * per : c * per + spec.support_size]
        else:
            # Overlapping supports when k exceeds the disjoint budget.
            supports[c] = class_rng.choice(
                spec.dim, size=spec.support_size, replace=False
            )

    labels = sample_rng.integers(0, spec.n_classes, size=n_samples)
    z = sample_rng.standard_normal((n_samples, spec.dim)) * spec.noise
    signs = sample_rng.choice([-1.0, 1.0], size=(n_samples, spec.support_size))
    magnitudes = spec.signal * (
        0.75 + 0.5 * sample_rng.random((n_samples, spec.support_size))
    )
    rows = np.arange(n_samples)[:, None]
    z[rows, supports[labels]] += signs * magnitudes

    if spec.butterfly_mixing:
        twiddle = orthogonal_twiddle(spec.dim, seed=mix_rng)
        x = butterfly_multiply(twiddle, z)
    else:
        a = mix_rng.standard_normal((spec.dim, spec.dim))
        q, r = np.linalg.qr(a)
        d = q * np.sign(np.diag(r))
        x = z @ d.T
    return ArrayDataset(
        x=x.astype(np.float32), y=labels.astype(np.int64)
    )

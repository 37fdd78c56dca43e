"""Low-rank weight parameterisation ``W = U V^T`` (Table 4 baseline).

With rank ``r`` the layer stores ``2 n r`` parameters and applies in
``O(n r)``.  The paper (following Thomas et al. 2018) uses ``r = 1`` to match
the parameter budgets of the other structured methods, which is also why its
accuracy collapses: a rank-1 hidden transform funnels the entire input
through a single scalar — exactly the failure mode our synthetic CIFAR-10
reproduces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lowrank_to_dense", "lowrank_param_count"]


def lowrank_param_count(n: int, rank: int, m: int | None = None) -> int:
    """Parameters of an ``(m x n)`` rank-*r* factorisation: ``(m + n) r``."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    m = n if m is None else m
    return (m + n) * rank


def lowrank_to_dense(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense ``(m, n)`` expansion ``U V^T``."""
    return np.asarray(u) @ np.asarray(v).T

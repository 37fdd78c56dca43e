"""Loss functions and classification metrics.

Cross-entropy (the paper's Table 3 loss) is built from the stable
log-softmax primitive plus target gathering, so its gradient flows through
the recorded graph with no bespoke backward code.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = ["cross_entropy", "accuracy"]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between *logits* ``(B, C)`` and int *targets* ``(B,)``."""
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(
            f"targets must be ({logits.shape[0]},), got {targets.shape}"
        )
    if not np.issubdtype(targets.dtype, np.integer):
        raise TypeError(f"targets must be integer class ids, got {targets.dtype}")
    log_probs = F.log_softmax(logits, axis=-1)
    picked = F.getitem(log_probs, (np.arange(len(targets)), targets))
    return -F.mean(picked)


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets)
    if len(data) == 0:
        return 0.0
    return float((data.argmax(axis=-1) == targets).mean())

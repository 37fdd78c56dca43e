"""Optimisers.

The paper trains everything with SGD + momentum 0.9 and no weight decay
(Table 3), so SGD is the only optimiser and momentum (plus the nesterov
variant the fuzzer's optimizer oracle checks) its only extension.
Updates are in-place on the parameter arrays (no reallocations in the
training loop, per the HPC guides' in-place-op advice).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["Optimizer", "SGD"]


class Optimizer:
    """Base optimiser: holds the parameter list and clears gradients."""

    def __init__(self, params) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        """Reset gradients of all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serialisable snapshot of the optimiser's mutable state.

        Returns ``{"scalars": {}, "slots": {name: [array|None, ...]}}``
        — one slot list per per-parameter buffer, aligned with
        ``self.params``.  Subclasses override :meth:`_slots` rather than
        this method.  No optimiser here keeps scalar state, but trainer
        checkpoints store the ``"scalars"`` entry, so it stays.
        """
        return {
            "scalars": {},
            "slots": {
                name: [None if b is None else b.copy() for b in buffers]
                for name, buffers in self._slots().items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        slots = self._slots()
        saved = state.get("slots", {})
        if set(saved) != set(slots):
            raise KeyError(
                f"optimizer state mismatch: expected slots {sorted(slots)}, "
                f"got {sorted(saved)}"
            )
        for name, buffers in saved.items():
            if len(buffers) != len(self.params):
                raise ValueError(
                    f"slot {name!r} has {len(buffers)} buffers for "
                    f"{len(self.params)} parameters"
                )
            slots[name][:] = [
                None if b is None else np.asarray(b).copy() for b in buffers
            ]

    def _slots(self) -> dict[str, list]:
        """Per-parameter buffer lists (live references); default: none."""
        return {}


def _nesterov_direction(
    grad: np.ndarray, momentum: float, velocity: np.ndarray
) -> np.ndarray:
    """PyTorch nesterov look-ahead: ``g + mu * v`` with the freshly
    updated buffer — not ``(1 + mu) * v``.  Module-level so the fuzzer's
    planted-bug hook (:mod:`repro.verify.hooks`) can swap in the
    historical wrong formula and prove the optimizer oracle catches it.
    """
    return grad + momentum * velocity


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum.

    Matches PyTorch semantics: ``v = mu * v + g`` then ``p -= lr * v``
    (momentum buffer initialised to the first gradient).
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        momentum: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)
        # Every parameter's ``lr * g`` is written here, not into a fresh
        # array per parameter per step.  It is at least float64, which
        # holds a float32 product exactly.
        self._scratch = np.empty(
            max(p.data.size for p in self.params),
            dtype=np.result_type(
                lr, np.float64, *{p.data.dtype for p in self.params}
            ),
        )

    def step(self) -> None:
        """Apply one update using the gradients currently on the params."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = g.copy()
                else:
                    self._velocity[i] *= self.momentum
                    self._velocity[i] += g
                if self.nesterov:
                    g = _nesterov_direction(
                        g, self.momentum, self._velocity[i]
                    )
                else:
                    g = self._velocity[i]
            step = self._scratch[: g.size].reshape(g.shape)
            np.multiply(self.lr, g, out=step)
            p.data -= step

    def _slots(self) -> dict[str, list]:
        return {"velocity": self._velocity}


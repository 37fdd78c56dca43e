"""Optimisers.

The paper trains everything with SGD + momentum 0.9 and no weight decay
(Table 3), so SGD is the only optimiser and momentum (plus the nesterov
variant the fuzzer's optimizer oracle checks) its only extension.
Updates are in-place on the parameter arrays (no reallocations in the
training loop, per the HPC guides' in-place-op advice).
"""

from __future__ import annotations

import math

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


#: Most elements one ufunc of :meth:`SGD.step` touches at a time: 256 KiB
#: of float64.  A block is whole rows (a slice of the first axis), so it is
#: a view of any layout; a row wider than this is a block of its own.
_BLOCK = 32_768


def _block_rows(shape: tuple[int, ...]) -> int:
    """Rows in each block of a parameter of *shape* (the last may be short)."""
    return max(1, _BLOCK // max(1, math.prod(shape[1:])))


def _row_blocks(shape: tuple[int, ...]) -> list:
    """Index keys of the row blocks that tile a parameter of *shape*."""
    rows = _block_rows(shape)
    if not shape or shape[0] <= rows:
        return [...]
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


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
        # Every parameter's ``lr * g`` is written here, one row block at a
        # time, not into a fresh array per parameter per step.  It is at
        # least float64, which holds a float32 product exactly.
        self._scratch = np.empty(
            max(
                min(p.data.size, _block_rows(p.shape) * math.prod(p.shape[1:]))
                for p in self.params
            ),
            dtype=np.result_type(
                lr, np.float64, *{p.data.dtype for p in self.params}
            ),
        )

    def step(self) -> None:
        """Apply one update using the gradients currently on the params.

        Each ufunc runs over one row block of a parameter at a time, so a
        block's velocity, step and parameter stay in cache between the
        ufuncs instead of every ufunc streaming the whole array.  The
        ufuncs are elementwise, so the blocks change no bit.
        """
        mu = self.momentum
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            # A 0-d parameter's summed gradient is a numpy scalar; as a
            # 0-d array its blocks are views.
            g = np.asarray(p.grad)
            v = self._velocity[i]
            first = v is None
            if mu and first:
                v = self._velocity[i] = g.copy()
            data = p.data
            for rows in _row_blocks(data.shape):
                d = g[rows]
                if mu:
                    vb = v[rows]
                    if not first:
                        vb *= mu
                        vb += d
                    d = _nesterov_direction(d, mu, vb) if self.nesterov else vb
                step = self._scratch[: d.size].reshape(d.shape)
                np.multiply(self.lr, d, out=step)
                data[rows] -= step

    def _slots(self) -> dict[str, list]:
        return {"velocity": self._velocity}


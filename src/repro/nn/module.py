"""Module base class: parameter registration, traversal, train/eval state."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Parameter, Tensor

__all__ = ["Module"]


class Module:
    """Base class for neural-network components.

    Assigning a :class:`Parameter` or another :class:`Module` as an attribute
    registers it automatically, so :meth:`parameters` and
    :meth:`named_parameters` can traverse arbitrarily nested models — the
    device bridges (:mod:`repro.ipu.poptorch`, :mod:`repro.gpu.torchsim`)
    rely on the same traversal to lower models onto the simulators.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ----------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """All parameters in this module and its submodules."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """(name, parameter) pairs with dotted-path names."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """This module and all submodules, depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -- state --------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def param_count(self) -> int:
        """Total number of scalar parameters (the paper's ``N_params``)."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if params[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model "
                    f"{params[name].shape} vs state {value.shape}"
                )
            params[name].data = value.copy()

    # -- forward ------------------------------------------------------------

    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        header = self.extra_repr()
        if not child_lines:
            return f"{type(self).__name__}({header})"
        body = "\n".join(child_lines)
        return f"{type(self).__name__}(\n{body}\n)"

    def extra_repr(self) -> str:
        """One-line description used by ``__repr__``; override in layers."""
        return ""

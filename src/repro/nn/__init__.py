"""Minimal PyTorch-like deep-learning framework on numpy.

Provides exactly the subset the paper's experiments need: a reverse-mode
autograd :class:`Tensor`, ``Module``/``Linear``/``Sequential`` building
blocks, SGD with momentum, cross-entropy, a data pipeline and a trainer —
plus the structured layers (:mod:`repro.nn.structured`) that replace dense
``Linear`` weights with butterfly/pixelfly/fastfood/circulant/low-rank
factorizations.  Beyond the paper's ReLU, the fuzzer draws ``Tanh`` and
``Sigmoid``; ``BatchNorm1d`` and ``LayerNorm`` keep a lowering that
``tests/ipu/ir_golden.json`` pins.
"""

from repro.nn.tensor import Tensor, Parameter, no_grad, is_grad_enabled
from repro.nn import functional
from repro.nn.module import Module
from repro.nn.layers import (
    Linear,
    ReLU,
    Tanh,
    Sigmoid,
    Sequential,
    BatchNorm1d,
    LayerNorm,
)
from repro.nn.optim import Optimizer, SGD
from repro.nn.losses import cross_entropy, accuracy
from repro.nn.data import ArrayDataset, DataLoader, train_val_split
from repro.nn.trainer import NumericsError, Trainer, TrainingHistory
from repro.nn.structured import (
    ButterflyLinear,
    PixelflyLinear,
    FastfoodLinear,
    CirculantLinear,
    LowRankLinear,
)

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "BatchNorm1d",
    "LayerNorm",
    "Optimizer",
    "SGD",
    "cross_entropy",
    "accuracy",
    "ArrayDataset",
    "DataLoader",
    "train_val_split",
    "NumericsError",
    "Trainer",
    "TrainingHistory",
    "ButterflyLinear",
    "PixelflyLinear",
    "FastfoodLinear",
    "CirculantLinear",
    "LowRankLinear",
]

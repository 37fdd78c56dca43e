"""Finite-difference gradient grid: every structured layer, every loss.

One parametrized sweep replaces the per-layer spot checks that used to
live in ``tests/nn/test_structured_grads.py``: for each (layer family x
configuration) cell it verifies both every parameter gradient and the
input gradient against central finite differences, through the full
layer forward path (padding, bias, residual, low-rank composition).
The losses get the same treatment with respect to their predictions.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from tests.conftest import numeric_gradient


def loss_of(layer, x, seed_grad):
    out = layer(Tensor(x))
    return float((out.data * seed_grad).sum())


def check_layer_param_grads(layer, x, atol=2e-4):
    """Compare every parameter's autograd gradient to finite differences."""
    rng = np.random.default_rng(0)
    out = layer(Tensor(x))
    seed_grad = rng.standard_normal(out.shape)
    out.backward(seed_grad)
    analytic = {
        name: p.grad.copy() for name, p in layer.named_parameters()
    }
    assert analytic, "layer exposes no parameters"

    for name, param in layer.named_parameters():
        base = param.data.copy()

        def scalar(value, param=param, base=base):
            param.data = value
            result = loss_of(layer, x, seed_grad)
            param.data = base
            return result

        numeric = numeric_gradient(scalar, base)
        np.testing.assert_allclose(
            analytic[name], numeric, atol=atol, rtol=1e-3,
            err_msg=f"grad mismatch for {name}",
        )


def check_layer_input_grad(layer, x, atol=2e-4):
    rng = np.random.default_rng(1)
    t = Tensor(x, requires_grad=True)
    out = layer(t)
    seed_grad = rng.standard_normal(out.shape)
    out.backward(seed_grad)
    numeric = numeric_gradient(
        lambda a: loss_of(layer, a, seed_grad), x
    )
    np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=1e-3)


#: The layer grid: (id, in_features, factory).  Every structured layer
#: family appears with at least two parameterisations (square and
#: rectangular / padded / with and without the optional terms).
LAYER_GRID = [
    ("butterfly-8x8", 8, lambda: nn.ButterflyLinear(8, 8, seed=0)),
    ("butterfly-6x5-pad", 6, lambda: nn.ButterflyLinear(6, 5, seed=1)),
    (
        "butterfly-8x8-2blocks",
        8,
        lambda: nn.ButterflyLinear(8, 8, nblocks=2, seed=2),
    ),
    (
        "butterfly-8x8-nobias",
        8,
        lambda: nn.ButterflyLinear(8, 8, bias=False, seed=3),
    ),
    (
        "pixelfly-16-rank2",
        16,
        lambda: nn.PixelflyLinear(16, block_size=4, rank=2, seed=0),
    ),
    (
        "pixelfly-16-rank0",
        16,
        lambda: nn.PixelflyLinear(16, block_size=4, rank=0, seed=1),
    ),
    (
        "pixelfly-16-residual",
        16,
        lambda: nn.PixelflyLinear(
            16, block_size=4, rank=1, residual=True, seed=2
        ),
    ),
    ("fastfood-8", 8, lambda: nn.FastfoodLinear(8, seed=0)),
    (
        "fastfood-8-nobias",
        8,
        lambda: nn.FastfoodLinear(8, bias=False, seed=1),
    ),
    ("circulant-8", 8, lambda: nn.CirculantLinear(8, seed=0)),
    ("circulant-7-odd", 7, lambda: nn.CirculantLinear(7, seed=1)),
    ("lowrank-8x8-r2", 8, lambda: nn.LowRankLinear(8, 8, rank=2, seed=0)),
    (
        "lowrank-6x9-r3",
        6,
        lambda: nn.LowRankLinear(6, 9, rank=3, seed=1),
    ),
]

LAYER_IDS = [entry[0] for entry in LAYER_GRID]


@pytest.mark.parametrize("case", LAYER_GRID, ids=LAYER_IDS)
class TestStructuredLayerGrads:
    def test_param_grads(self, case, rng):
        _, in_features, factory = case
        x = rng.standard_normal((3, in_features))
        check_layer_param_grads(factory(), x)

    def test_input_grad(self, case, rng):
        _, in_features, factory = case
        x = rng.standard_normal((3, in_features))
        check_layer_input_grad(factory(), x)


class TestLossGrads:
    """Both losses' prediction gradients match finite differences."""

    def test_cross_entropy_logit_grad(self, rng):
        logits = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, 6)
        t = Tensor(logits, requires_grad=True)
        nn.cross_entropy(t, targets).backward()
        numeric = numeric_gradient(
            lambda a: float(nn.cross_entropy(Tensor(a), targets).item()),
            logits,
        )
        np.testing.assert_allclose(t.grad, numeric, atol=1e-6, rtol=1e-4)

    def test_mse_pred_grad(self, rng):
        pred = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 3))

        def mse(p):
            diff = p - target
            return (diff * diff).mean()

        t = Tensor(pred, requires_grad=True)
        mse(t).backward()
        numeric = numeric_gradient(
            lambda a: float(mse(Tensor(a)).item()), pred
        )
        np.testing.assert_allclose(t.grad, numeric, atol=1e-6, rtol=1e-4)

    @pytest.mark.parametrize("n_classes", [2, 3, 7])
    def test_cross_entropy_through_layer(self, n_classes, rng):
        # The loss composed with a real layer — the gradient the
        # trainer actually uses.
        layer = nn.Linear(8, n_classes, seed=0)
        x = rng.standard_normal((4, 8))
        targets = rng.integers(0, n_classes, 4)

        def scalar(w):
            layer.weight.data = w
            return float(
                nn.cross_entropy(layer(Tensor(x)), targets).item()
            )

        base = layer.weight.data.copy()
        nn.cross_entropy(layer(Tensor(x)), targets).backward()
        analytic = layer.weight.grad.copy()
        numeric = numeric_gradient(scalar, base)
        layer.weight.data = base
        np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-4)

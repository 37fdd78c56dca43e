"""Tests for the SGD optimiser and the loss functions."""

import numpy as np
import pytest

from repro.nn import Parameter, Tensor
from repro.nn.losses import accuracy, cross_entropy, mse_loss
from repro.nn.optim import SGD


def quadratic_param(value=5.0):
    return Parameter(np.array([value]))


class TestSGD:
    def test_plain_step(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        assert p.data[0] == pytest.approx(4.8)

    def test_momentum_matches_pytorch_semantics(self):
        p = quadratic_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v = 1, p = -1
        p.grad = np.array([1.0])
        opt.step()  # v = 1.5, p = -2.5
        assert p.data[0] == pytest.approx(-2.5)

    def test_weight_decay(self):
        p = quadratic_param(2.0)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_skips_none_grads(self):
        p = quadratic_param()
        SGD([p], lr=0.1).step()  # no grad set: no crash, no change
        assert p.data[0] == 5.0

    def test_zero_grad(self):
        p = quadratic_param()
        p.grad = np.ones(1)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=-1)
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, nesterov=True)

    def test_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            loss = (Tensor(p.data) * 0).sum()  # placeholder
            p.grad = 2 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, 6)
        loss = cross_entropy(Tensor(logits, requires_grad=True), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        manual = -np.log(probs[np.arange(6), targets]).mean()
        assert loss.item() == pytest.approx(manual)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.standard_normal((5, 3))
        targets = rng.integers(0, 3, 5)
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, targets).backward()
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        probs[np.arange(5), targets] -= 1
        np.testing.assert_allclose(t.grad, probs / 5, atol=1e-10)

    def test_uniform_logits_loss_is_log_c(self):
        logits = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(10))

    def test_validation(self):
        with pytest.raises(ValueError, match="batch"):
            cross_entropy(Tensor(np.zeros(3), requires_grad=True), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="targets"):
            cross_entropy(
                Tensor(np.zeros((3, 2)), requires_grad=True),
                np.zeros(4, dtype=int),
            )
        with pytest.raises(TypeError, match="integer"):
            cross_entropy(
                Tensor(np.zeros((3, 2)), requires_grad=True), np.zeros(3)
            )


class TestMSEAndAccuracy:
    def test_mse(self, rng):
        pred = rng.standard_normal(10)
        target = rng.standard_normal(10)
        loss = mse_loss(Tensor(pred, requires_grad=True), target)
        assert loss.item() == pytest.approx(((pred - target) ** 2).mean())

    def test_mse_with_tensor_target(self, rng):
        pred = rng.standard_normal(5)
        loss = mse_loss(Tensor(pred, requires_grad=True), Tensor(pred))
        assert loss.item() == 0.0

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        targets = np.array([0, 1, 1])
        assert accuracy(logits, targets) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy(logits, np.array([0])) == 1.0

"""Regression: SGD nesterov must follow PyTorch's reference trajectory.

The broken update scaled the whole step by ``(1 + mu)`` (it used
``(1 + mu) * v_new`` instead of ``g + mu * v_new``), which only agrees
with PyTorch on the very first step — so every test walks several steps
against a hand-rolled reference.
"""

import numpy as np
import pytest

from repro.nn import SGD
from repro.nn.tensor import Parameter


def reference_sgd(p0, grads, lr, momentum, nesterov):
    """PyTorch-semantics SGD trajectory: list of param values per step."""
    p = np.array(p0, dtype=np.float64)
    v = None
    out = []
    for g in grads:
        g = np.asarray(g, dtype=np.float64)
        if momentum:
            v = g.copy() if v is None else momentum * v + g
            g = g + momentum * v if nesterov else v
        p = p - lr * g
        out.append(p.copy())
    return out


def run_sgd(p0, grads, **kwargs):
    param = Parameter(np.array(p0, dtype=np.float64))
    opt = SGD([param], **kwargs)
    out = []
    for g in grads:
        param.grad = np.asarray(g, dtype=np.float64).copy()
        opt.step()
        out.append(param.data.copy())
    return out


GRADS = [
    np.array([1.0, -2.0, 0.5]),
    np.array([0.5, 0.5, -1.0]),
    np.array([-0.25, 1.5, 2.0]),
    np.array([2.0, -0.5, -0.5]),
    np.array([0.0, 0.0, 1.0]),
]


class TestNesterovTrajectory:
    def test_matches_reference_step_by_step(self):
        ours = run_sgd(
            [1.0, -1.0, 2.0], GRADS, lr=0.1, momentum=0.9, nesterov=True
        )
        ref = reference_sgd(
            [1.0, -1.0, 2.0], GRADS, lr=0.1, momentum=0.9, nesterov=True
        )
        for step, (a, b) in enumerate(zip(ours, ref)):
            np.testing.assert_array_equal(a, b, err_msg=f"step {step}")

    def test_first_step_is_one_plus_mu_times_grad(self):
        # With the buffer initialised to g, the first nesterov update is
        # (1 + mu) * g — the one case the old formula got right.
        lr, mu = 0.1, 0.9
        (p1,) = run_sgd(
            [0.0], [np.array([1.0])], lr=lr, momentum=mu, nesterov=True
        )
        assert p1[0] == pytest.approx(-lr * (1 + mu))

    def test_second_step_diverges_from_buggy_formula(self):
        lr, mu = 0.1, 0.9
        grads = [np.array([1.0]), np.array([1.0])]
        _, p2 = run_sgd([0.0], grads, lr=lr, momentum=mu, nesterov=True)
        # Correct: v2 = mu + 1; step2 = g + mu*v2 = 1 + mu + mu^2.
        correct = -lr * (1 + mu) - lr * (1 + mu + mu * mu)
        # Buggy (1 + mu) * v2 scaling would give a larger step.
        buggy = -lr * (1 + mu) - lr * (1 + mu) * (1 + mu)
        assert p2[0] == pytest.approx(correct)
        assert p2[0] != pytest.approx(buggy)

    def test_plain_momentum_unchanged(self):
        ours = run_sgd([1.0, 2.0, 3.0], GRADS, lr=0.1, momentum=0.9)
        ref = reference_sgd([1.0, 2.0, 3.0], GRADS, 0.1, 0.9, False)
        for a, b in zip(ours, ref):
            np.testing.assert_array_equal(a, b)

    def test_nesterov_differs_from_plain_momentum(self):
        nesterov = run_sgd(
            [1.0, 2.0, 3.0], GRADS, lr=0.1, momentum=0.9, nesterov=True
        )
        plain = run_sgd([1.0, 2.0, 3.0], GRADS, lr=0.1, momentum=0.9)
        assert not np.allclose(nesterov[-1], plain[-1])

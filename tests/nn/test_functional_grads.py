"""Gradient checks for every Function against finite differences."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from tests.conftest import numeric_gradient


def check(fn_tensor, fn_numpy, *arrays, atol=1e-5):
    """Assert autograd grads of fn match finite differences for each input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn_tensor(*tensors)
    seed = np.random.default_rng(0).standard_normal(out.shape)
    out.backward(seed)
    for i, (t, a) in enumerate(zip(tensors, arrays)):

        def scalar(x, i=i):
            args = list(arrays)
            args[i] = x
            return float((fn_numpy(*args) * seed).sum())

        numeric = numeric_gradient(scalar, np.asarray(a, dtype=np.float64))
        np.testing.assert_allclose(
            t.grad, numeric, atol=atol, rtol=1e-4,
            err_msg=f"gradient mismatch for input {i}",
        )


@pytest.fixture
def r():
    return np.random.default_rng(7)


class TestArithmetic:
    def test_add_broadcast(self, r):
        check(
            lambda a, b: a + b,
            lambda a, b: a + b,
            r.standard_normal((3, 4)),
            r.standard_normal(4),
        )

    def test_sub_broadcast(self, r):
        check(
            lambda a, b: a - b,
            lambda a, b: a - b,
            r.standard_normal((2, 3)),
            r.standard_normal((1, 3)),
        )

    def test_mul_broadcast(self, r):
        check(
            lambda a, b: a * b,
            lambda a, b: a * b,
            r.standard_normal((3, 1)),
            r.standard_normal((3, 4)),
        )

    def test_div(self, r):
        check(
            lambda a, b: a / b,
            lambda a, b: a / b,
            r.standard_normal((3, 3)),
            r.standard_normal((3, 3)) + 3.0,
        )

    def test_pow(self, r):
        a = np.abs(r.standard_normal((3, 2))) + 0.5
        check(lambda t: t**2.5, lambda x: x**2.5, a)

    def test_neg(self, r):
        check(lambda a: -a, lambda a: -a, r.standard_normal(5))


class TestElementwise:
    def test_exp(self, r):
        check(F.exp, np.exp, r.standard_normal((2, 3)))

    def test_log(self, r):
        a = np.abs(r.standard_normal((2, 3))) + 0.5
        check(F.log, np.log, a)

    def test_sqrt(self, r):
        a = np.abs(r.standard_normal(6)) + 0.5
        check(F.sqrt, np.sqrt, a)

    def test_abs(self, r):
        a = r.standard_normal(8)
        a[np.abs(a) < 0.1] += 0.5  # stay away from the kink
        check(F.abs_, np.abs, a)

    def test_relu(self, r):
        a = r.standard_normal((4, 4))
        a[np.abs(a) < 0.1] += 0.5
        check(F.relu, lambda x: np.maximum(x, 0), a)

    def test_tanh(self, r):
        check(F.tanh, np.tanh, r.standard_normal((3, 3)))

    def test_sigmoid(self, r):
        check(
            F.sigmoid, lambda x: 1 / (1 + np.exp(-x)), r.standard_normal(5)
        )


class TestMatmul:
    def test_2d(self, r):
        check(
            F.matmul,
            lambda a, b: a @ b,
            r.standard_normal((3, 4)),
            r.standard_normal((4, 5)),
        )

    def test_vec_mat(self, r):
        check(
            F.matmul,
            lambda a, b: a @ b,
            r.standard_normal(4),
            r.standard_normal((4, 5)),
        )

    def test_mat_vec(self, r):
        check(
            F.matmul,
            lambda a, b: a @ b,
            r.standard_normal((3, 4)),
            r.standard_normal(4),
        )

    def test_vec_vec(self, r):
        check(
            F.matmul,
            lambda a, b: a @ b,
            r.standard_normal(6),
            r.standard_normal(6),
        )

    def test_batched(self, r):
        check(
            F.matmul,
            lambda a, b: a @ b,
            r.standard_normal((2, 3, 4)),
            r.standard_normal((2, 4, 5)),
        )

    def test_batched_broadcast_b(self, r):
        check(
            F.matmul,
            lambda a, b: a @ b,
            r.standard_normal((2, 3, 4)),
            r.standard_normal((4, 5)),
        )


class TestReductions:
    def test_sum_all(self, r):
        check(lambda a: F.sum_(a), lambda a: a.sum(), r.standard_normal((3, 4)))

    def test_sum_axis(self, r):
        check(
            lambda a: F.sum_(a, axis=1),
            lambda a: a.sum(axis=1),
            r.standard_normal((3, 4)),
        )

    def test_sum_keepdims(self, r):
        check(
            lambda a: F.sum_(a, axis=0, keepdims=True),
            lambda a: a.sum(axis=0, keepdims=True),
            r.standard_normal((3, 4)),
        )

    def test_sum_negative_axis(self, r):
        check(
            lambda a: F.sum_(a, axis=-1),
            lambda a: a.sum(axis=-1),
            r.standard_normal((2, 3, 4)),
        )

    def test_mean_all(self, r):
        check(lambda a: F.mean(a), lambda a: a.mean(), r.standard_normal(7))

    def test_mean_axis(self, r):
        check(
            lambda a: F.mean(a, axis=0),
            lambda a: a.mean(axis=0),
            r.standard_normal((4, 5)),
        )

    def test_max_all(self, r):
        a = r.standard_normal(9)
        check(lambda t: F.max_(t), lambda x: x.max(), a)

    def test_max_axis(self, r):
        a = r.standard_normal((4, 5))
        check(
            lambda t: F.max_(t, axis=1),
            lambda x: x.max(axis=1),
            a,
        )


class TestShape:
    def test_reshape(self, r):
        check(
            lambda a: F.reshape(a, (6,)),
            lambda a: a.reshape(6),
            r.standard_normal((2, 3)),
        )

    def test_transpose_default(self, r):
        check(
            lambda a: F.transpose(a),
            lambda a: a.T,
            r.standard_normal((2, 5)),
        )

    def test_transpose_axes(self, r):
        check(
            lambda a: F.transpose(a, (1, 2, 0)),
            lambda a: np.transpose(a, (1, 2, 0)),
            r.standard_normal((2, 3, 4)),
        )

    def test_getitem_slice(self, r):
        check(
            lambda a: F.getitem(a, (slice(None), slice(0, 2))),
            lambda a: a[:, 0:2],
            r.standard_normal((3, 5)),
        )

    def test_getitem_fancy(self, r):
        idx = np.array([2, 0, 2])
        check(
            lambda a: F.getitem(a, idx),
            lambda a: a[idx],
            r.standard_normal((4, 3)),
        )

    def test_pad_last(self, r):
        check(
            lambda a: F.pad_last(a, 7),
            lambda a: np.pad(a, ((0, 0), (0, 3))),
            r.standard_normal((2, 4)),
        )

    def test_pad_last_rejects_shrink(self, r):
        with pytest.raises(ValueError, match="smaller"):
            F.pad_last(Tensor(np.zeros((2, 8))), 4)


class TestSoftmax:
    def test_log_softmax(self, r):
        def np_logsoftmax(a):
            shifted = a - a.max(axis=-1, keepdims=True)
            return shifted - np.log(
                np.exp(shifted).sum(axis=-1, keepdims=True)
            )

        check(F.log_softmax, np_logsoftmax, r.standard_normal((4, 6)))

    def test_softmax_rows_sum_to_one(self, r):
        out = F.softmax(Tensor(r.standard_normal((3, 5))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3))

    def test_log_softmax_stability(self):
        big = Tensor(np.array([[1000.0, 1000.0]]), requires_grad=True)
        out = F.log_softmax(big)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, np.log(0.5) * np.ones((1, 2)))


class TestDropout:
    def test_eval_mode_is_identity(self, r):
        x = Tensor(r.standard_normal((3, 3)), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_training_mode_scales(self, r):
        x = Tensor(np.ones((100, 100)), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        # Inverted dropout keeps the expectation.
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_grad_masked(self, r):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = F.dropout(x, 0.3, np.random.default_rng(1), training=True)
        out.sum().backward()
        zeros = (x.grad == 0).mean()
        assert zeros == pytest.approx(0.3, abs=0.05)

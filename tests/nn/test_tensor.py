"""Tests for the autograd Tensor engine."""

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, no_grad


class TestBasics:
    def test_wraps_array(self):
        t = Tensor([1.0, 2.0])
        assert t.shape == (2,)
        assert t.ndim == 1
        assert t.size == 2

    def test_requires_grad_casts_int_to_float(self):
        t = Tensor([1, 2], requires_grad=True)
        assert np.issubdtype(t.dtype, np.floating)

    def test_item(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_rejects_multielement(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_repr(self):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        assert len(t) == 3
        assert "requires_grad" in repr(t)

    def test_parameter_is_trainable(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad
        assert "Parameter" in repr(p)

    def test_wrapping_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data


class TestBackwardMechanics:
    def test_scalar_backward_default_grad(self):
        a = Tensor(2.0, requires_grad=True)
        (a * 3.0).backward()
        assert a.grad == pytest.approx(3.0)

    def test_nonscalar_requires_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (a * 2).backward()

    def test_explicit_grad_shape_checked(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (a * 2).backward(np.ones(3))

    def test_backward_without_grad_flag(self):
        with pytest.raises(RuntimeError, match="no grad"):
            Tensor([1.0]).backward()

    def test_gradient_accumulates_across_backwards(self):
        a = Tensor(1.0, requires_grad=True)
        (a * 2).backward()
        (a * 2).backward()
        assert a.grad == pytest.approx(4.0)

    def test_zero_grad(self):
        a = Tensor(1.0, requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor(3.0, requires_grad=True)
        b = a * 2
        c = a * 5
        (b + c).backward()
        assert a.grad == pytest.approx(7.0)

    def test_reused_tensor_in_one_expression(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a).backward()
        assert a.grad == pytest.approx(4.0)

    def test_deep_chain(self):
        a = Tensor(1.0, requires_grad=True)
        out = a
        for _ in range(200):
            out = out * 1.01
        out.backward()
        assert a.grad == pytest.approx(1.01**200, rel=1e-9)

    def test_no_grad_blocks_recording(self):
        a = Tensor(1.0, requires_grad=True)
        with no_grad():
            b = a * 2
        assert b.is_leaf and not b.requires_grad

    def test_no_grad_restores_state(self):
        from repro.nn import is_grad_enabled

        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_grad_flows_only_to_requiring_tensors(self):
        a = Tensor(1.0, requires_grad=True)
        b = Tensor(2.0, requires_grad=False)
        (a * b).backward()
        assert a.grad == pytest.approx(2.0)
        assert b.grad is None


class TestOperatorSugar:
    def test_radd_rsub_rmul_rdiv(self):
        a = Tensor(4.0, requires_grad=True)
        out = (1.0 + a) - 2.0
        out = (3.0 * out) / 2.0
        out = 6.0 / a + out - (2.0 - a)
        out.backward()
        # d/da [3(a-1)/2 + 6/a + a - 2] = 1.5 - 6/a^2 + 1
        assert a.grad == pytest.approx(1.5 - 6 / 16 + 1)

    def test_pow(self):
        a = Tensor(3.0, requires_grad=True)
        (a**3).backward()
        assert a.grad == pytest.approx(27.0)

    def test_neg(self):
        a = Tensor(2.0, requires_grad=True)
        (-a).backward()
        assert a.grad == pytest.approx(-1.0)

    def test_getitem(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a[0, 1]
        out.backward()
        expected = np.zeros((2, 3))
        expected[0, 1] = 1
        np.testing.assert_array_equal(a.grad, expected)

    def test_transpose_property(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        assert a.T.shape == (3, 2)

    def test_reshape_method(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        b = a.reshape(2, 3)
        assert b.shape == (2, 3)
        b.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(6))

    def test_numpy_array_priority(self):
        # numpy scalars/arrays on the left still route to our ops.
        a = Tensor(np.ones(3), requires_grad=True)
        out = np.float64(2.0) * a
        assert isinstance(out, Tensor)

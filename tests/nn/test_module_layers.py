"""Tests for Module registration/traversal and the standard layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.layers import leaf_layers


class TestModule:
    def _model(self):
        return nn.Sequential(
            nn.Linear(4, 8, seed=0), nn.ReLU(), nn.Linear(8, 2, seed=1)
        )

    def test_parameters_traversal(self):
        model = self._model()
        params = list(model.parameters())
        assert len(params) == 4  # two weights + two biases

    def test_named_parameters_paths(self):
        names = dict(self._model().named_parameters())
        assert "layer0.weight" in names
        assert "layer2.bias" in names

    def test_param_count(self):
        model = self._model()
        assert model.param_count() == 4 * 8 + 8 + 8 * 2 + 2

    def test_modules_iteration(self):
        model = self._model()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds == ["Sequential", "Linear", "ReLU", "Linear"]

    def test_train_eval_propagates(self):
        model = self._model()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        model = self._model()
        out = model(Tensor(rng.standard_normal((3, 4))))
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self, rng):
        a = self._model()
        b = nn.Sequential(
            nn.Linear(4, 8, seed=5), nn.ReLU(), nn.Linear(8, 2, seed=6)
        )
        b.load_state_dict(a.state_dict())
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_load_state_dict_key_mismatch(self):
        a = self._model()
        state = a.state_dict()
        state.pop("layer0.weight")
        with pytest.raises(KeyError, match="missing"):
            a.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        a = self._model()
        state = a.state_dict()
        state["layer0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            a.load_state_dict(state)

    def test_repr_nested(self):
        text = repr(self._model())
        assert "Sequential" in text and "Linear" in text


class TestLinear:
    def test_forward_formula(self, rng):
        layer = nn.Linear(5, 3, seed=0)
        x = rng.standard_normal((4, 5))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = nn.Linear(5, 3, bias=False, seed=0)
        assert layer.bias is None
        x = rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            layer(Tensor(x)).data, x @ layer.weight.data.T
        )

    def test_deterministic_init(self):
        a = nn.Linear(6, 6, seed=3)
        b = nn.Linear(6, 6, seed=3)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_init_scale(self):
        layer = nn.Linear(1000, 1000, seed=0)
        bound = np.sqrt(3.0 / 1000)
        assert np.abs(layer.weight.data).max() <= bound + 1e-12

    def test_gradients_flow(self, rng):
        layer = nn.Linear(4, 2, seed=0)
        out = layer(Tensor(rng.standard_normal((3, 4))))
        out.sum().backward()
        assert layer.weight.grad.shape == (2, 4)
        assert layer.bias.grad.shape == (2,)


class TestActivationsAndContainers:
    def test_relu(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_tanh_sigmoid(self):
        x = Tensor(np.array([0.0]))
        assert nn.Tanh()(x).data[0] == 0.0
        assert nn.Sigmoid()(x).data[0] == pytest.approx(0.5)

    def test_sequential_indexing(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU)
        assert [type(m).__name__ for m in model] == ["Linear", "ReLU"]

    def test_leaf_layers_flatten_nested_sequentials_in_order(self):
        a, b, c, d = nn.Linear(2, 2), nn.ReLU(), nn.Tanh(), nn.Linear(2, 1)
        model = nn.Sequential(
            nn.Sequential(a, nn.Sequential()),
            nn.Sequential(nn.Sequential(b), c),
            d,
        )
        assert [id(m) for m in leaf_layers(model)] == list(map(id, [a, b, c, d]))

    def test_leaf_layers_of_a_bare_layer_or_empty_sequential(self):
        layer = nn.Linear(2, 2)
        assert list(leaf_layers(layer)) == [layer]
        assert list(leaf_layers(nn.Sequential())) == []

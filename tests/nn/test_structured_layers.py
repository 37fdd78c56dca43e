"""Tests for the structured layers: dense equivalence, shapes, params."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


def layer_output_matches_dense(layer, x):
    """Assert layer(x) == x @ W_dense.T + bias."""
    out = layer(Tensor(x)).data
    expected = x @ layer.weight_dense().T
    if layer.bias is not None:
        expected = expected + layer.bias.data
    np.testing.assert_allclose(out, expected, atol=1e-8)


class TestButterflyLinear:
    def test_square_matches_dense(self, rng):
        layer_output_matches_dense(
            nn.ButterflyLinear(16, 16, seed=0), rng.standard_normal((5, 16))
        )

    def test_rectangular_pads_and_slices(self, rng):
        layer = nn.ButterflyLinear(10, 6, seed=1)
        assert layer.n == 16
        x = rng.standard_normal((3, 10))
        out = layer(Tensor(x))
        assert out.shape == (3, 6)
        layer_output_matches_dense(layer, x)

    def test_expanding_layer(self, rng):
        layer = nn.ButterflyLinear(8, 30, seed=2)
        assert layer.n == 32
        assert layer(Tensor(rng.standard_normal((2, 8)))).shape == (2, 30)

    def test_param_count(self):
        layer = nn.ButterflyLinear(1024, 1024, seed=0)
        assert layer.param_count() == 20480 + 1024

    def test_orthogonal_init_preserves_norm(self, rng):
        layer = nn.ButterflyLinear(64, 64, bias=False, seed=0)
        x = rng.standard_normal((10, 64))
        y = layer(Tensor(x)).data
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), rtol=1e-9
        )

    def test_wrong_input_features(self, rng):
        layer = nn.ButterflyLinear(8, 8)
        with pytest.raises(ValueError, match="features"):
            layer(Tensor(rng.standard_normal((2, 9))))

    def test_1d_input(self, rng):
        layer = nn.ButterflyLinear(8, 8, seed=0)
        out = layer(Tensor(rng.standard_normal(8)))
        assert out.shape == (8,)

    def test_decreasing_stride_variant(self, rng):
        layer = nn.ButterflyLinear(16, 16, increasing_stride=False, seed=3)
        layer_output_matches_dense(layer, rng.standard_normal((4, 16)))

    def test_gradients_flow_to_twiddle(self, rng):
        layer = nn.ButterflyLinear(8, 8, seed=0)
        layer(Tensor(rng.standard_normal((2, 8)))).sum().backward()
        assert layer.twiddle.grad is not None
        assert layer.twiddle.grad.shape == layer.twiddle.shape


class TestMultiBlockButterfly:
    """``ButterflyLinear(nblocks > 1)``: a product of butterflies."""

    def test_forward_matches_dense(self, rng):
        for nb in [1, 2, 3]:
            layer = nn.ButterflyLinear(16, 16, nblocks=nb, seed=1)
            x = rng.standard_normal((4, 16))
            expected = x @ layer.weight_dense().T + layer.bias.data
            np.testing.assert_allclose(
                layer(Tensor(x)).data, expected, atol=1e-9
            )

    def test_param_count_scales_with_nblocks(self):
        one = nn.ButterflyLinear(64, 64, nblocks=1, bias=False).param_count()
        three = nn.ButterflyLinear(64, 64, nblocks=3, bias=False).param_count()
        assert three == 3 * one

    def test_validation(self):
        with pytest.raises(ValueError, match="nblocks"):
            nn.ButterflyLinear(8, 8, nblocks=0)

    def test_gradients_reach_all_blocks(self, rng):
        layer = nn.ButterflyLinear(8, 8, nblocks=2, seed=0)
        layer(Tensor(rng.standard_normal((3, 8)))).sum().backward()
        assert layer.twiddle.grad is not None
        assert layer.twiddle1.grad is not None

    def test_two_blocks_strictly_more_expressive(self, rng):
        """A product of two butterflies can fit a matrix a single butterfly
        cannot: fit BB to a random dense target via gradient descent and
        compare mean squared residuals."""
        n = 8
        target = rng.standard_normal((n, n)) / np.sqrt(n)
        x = rng.standard_normal((200, n))
        y = x @ target.T

        def fit(nblocks, steps=400):
            layer = nn.ButterflyLinear(
                n, n, nblocks=nblocks, bias=False, seed=3
            )
            opt = nn.SGD(layer.parameters(), lr=0.05, momentum=0.9)
            for _ in range(steps):
                opt.zero_grad()
                diff = layer(Tensor(x)) - y
                loss = (diff * diff).mean()
                loss.backward()
                opt.step()
            return loss.item()

        assert fit(2) < fit(1)

    def test_ipu_lowering_scales_compute_sets(self):
        from repro.ipu.poptorch import IPUModule

        one = IPUModule(
            nn.ButterflyLinear(128, 128, nblocks=1, bias=False, seed=0),
            128, 16,
        ).profile()
        two = IPUModule(
            nn.ButterflyLinear(128, 128, nblocks=2, bias=False, seed=0),
            128, 16,
        ).profile()
        assert two.n_compute_sets == 2 * one.n_compute_sets

    def test_gpu_lowering_scales_kernels(self):
        from repro.gpu.torchsim import GPUModule

        one = GPUModule(
            nn.ButterflyLinear(128, 128, nblocks=1, bias=False, seed=0),
            128, 16,
        )
        two = GPUModule(
            nn.ButterflyLinear(128, 128, nblocks=2, bias=False, seed=0),
            128, 16,
        )
        assert len(two.kernels) == 2 * len(one.kernels)
        assert two.param_bytes == 2 * one.param_bytes


class TestPixelflyLinear:
    def test_matches_dense(self, rng):
        layer = nn.PixelflyLinear(32, block_size=8, rank=2, seed=0)
        layer_output_matches_dense(layer, rng.standard_normal((4, 32)))

    def test_residual_variant(self, rng):
        layer = nn.PixelflyLinear(
            16, block_size=4, rank=1, residual=True, seed=1
        )
        layer_output_matches_dense(layer, rng.standard_normal((3, 16)))

    def test_rank_zero_omits_lowrank(self, rng):
        layer = nn.PixelflyLinear(16, block_size=4, rank=0, seed=2)
        assert layer.u is None and layer.v is None
        layer_output_matches_dense(layer, rng.standard_normal((2, 16)))

    def test_table4_param_count(self):
        layer = nn.PixelflyLinear(1024, block_size=32, rank=96, seed=0)
        # 196608 (blocks) + 196608 (U,V) + 1024 (bias) = paper-exact minus
        # classifier.
        assert layer.param_count() == 393216 + 1024

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            nn.PixelflyLinear(100)

    def test_mnist_dimension_fails_like_paper(self):
        # The paper could not run pixelfly on MNIST (784 features).
        with pytest.raises(ValueError):
            nn.PixelflyLinear(784)

    def test_hyperparameter_properties(self):
        layer = nn.PixelflyLinear(64, block_size=8, butterfly_size=4, rank=3)
        assert layer.block_size == 8
        assert layer.butterfly_size == 4
        assert layer.rank == 3

    def test_gradients_flow(self, rng):
        layer = nn.PixelflyLinear(16, block_size=4, rank=2, seed=0)
        layer(Tensor(rng.standard_normal((2, 16)))).sum().backward()
        assert layer.blocks.grad is not None
        assert layer.u.grad is not None
        assert layer.v.grad is not None

    def test_wrong_features(self, rng):
        layer = nn.PixelflyLinear(16, block_size=4)
        with pytest.raises(ValueError, match="features"):
            layer(Tensor(rng.standard_normal((2, 8))))


class TestFastfoodLinear:
    def test_matches_dense(self, rng):
        layer_output_matches_dense(
            nn.FastfoodLinear(16, seed=0), rng.standard_normal((4, 16))
        )

    def test_param_count(self):
        layer = nn.FastfoodLinear(1024, seed=0)
        assert layer.param_count() == 3 * 1024 + 1024

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            nn.FastfoodLinear(24)

    def test_gradients_reach_all_diagonals(self, rng):
        layer = nn.FastfoodLinear(8, seed=0)
        layer(Tensor(rng.standard_normal((3, 8)))).sum().backward()
        for p in (layer.s, layer.g, layer.b):
            assert p.grad is not None

    def test_permutation_is_fixed_not_parameter(self):
        layer = nn.FastfoodLinear(16, seed=0)
        names = [name for name, _ in layer.named_parameters()]
        assert "perm" not in names


class TestCirculantLinear:
    def test_matches_dense(self, rng):
        layer_output_matches_dense(
            nn.CirculantLinear(12, seed=0), rng.standard_normal((5, 12))
        )

    def test_param_count(self):
        assert nn.CirculantLinear(1024, seed=0).param_count() == 2048

    def test_non_power_of_two_allowed(self, rng):
        layer = nn.CirculantLinear(7, seed=0)
        layer_output_matches_dense(layer, rng.standard_normal((2, 7)))

    def test_gradients_flow(self, rng):
        layer = nn.CirculantLinear(8, seed=0)
        layer(Tensor(rng.standard_normal((2, 8)))).sum().backward()
        assert layer.c.grad is not None


class TestLowRankLinear:
    def test_matches_dense(self, rng):
        layer_output_matches_dense(
            nn.LowRankLinear(10, 6, rank=2, seed=0),
            rng.standard_normal((4, 10)),
        )

    def test_param_count_rank1(self):
        layer = nn.LowRankLinear(1024, 1024, rank=1, seed=0)
        assert layer.param_count() == 2048 + 1024

    def test_weight_rank_bounded(self):
        layer = nn.LowRankLinear(20, 20, rank=3, seed=0)
        assert np.linalg.matrix_rank(layer.weight_dense()) <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.LowRankLinear(4, 4, rank=0)
        with pytest.raises(ValueError):
            nn.LowRankLinear(0, 4)


class TestTable4ParamCounts:
    """The exact N_params column of the paper's Table 4."""

    def _shl(self, hidden):
        return nn.Sequential(hidden, nn.ReLU(), nn.Linear(1024, 10, seed=1))

    def test_baseline(self):
        assert self._shl(nn.Linear(1024, 1024, seed=0)).param_count() == 1059850

    def test_fastfood(self):
        assert self._shl(nn.FastfoodLinear(1024, seed=0)).param_count() == 14346

    def test_circulant(self):
        assert (
            self._shl(nn.CirculantLinear(1024, seed=0)).param_count() == 12298
        )

    def test_lowrank(self):
        assert (
            self._shl(nn.LowRankLinear(1024, 1024, rank=1, seed=0)).param_count()
            == 13322
        )

    def test_pixelfly(self):
        layer = nn.PixelflyLinear(1024, block_size=32, rank=96, seed=0)
        assert self._shl(layer).param_count() == 404490

    def test_butterfly_documented_deviation(self):
        # Paper reports 16390; the standard 2 n log2 n parameterisation
        # gives 31754 (see DESIGN.md §5 / EXPERIMENTS.md).
        model = self._shl(nn.ButterflyLinear(1024, 1024, seed=0))
        assert model.param_count() == 31754

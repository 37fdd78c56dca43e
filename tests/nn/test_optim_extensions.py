"""Tests for the multi-block butterfly extension (``nblocks > 1``)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import SGD, Tensor


class TestMultiBlockButterfly:
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
        compare residuals."""
        n = 8
        target = rng.standard_normal((n, n)) / np.sqrt(n)
        x = rng.standard_normal((200, n))
        y = x @ target.T

        def fit(nblocks, steps=400):
            layer = nn.ButterflyLinear(
                n, n, nblocks=nblocks, bias=False, seed=3
            )
            opt = SGD(layer.parameters(), lr=0.05, momentum=0.9)
            for _ in range(steps):
                opt.zero_grad()
                loss = nn.mse_loss(layer(Tensor(x)), y)
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

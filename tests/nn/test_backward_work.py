"""Backward computes only the gradients that are read, in the layout the
reader wants, without changing a bit of training.

``Function.apply`` records ``needs_input_grad``; the backward passes skip
the input gradient of the data batch, and ``MatMul`` hands a transposed
weight (``x @ w.T``) a C-ordered gradient.  These tests pin that neither
moves a trained parameter, that the skipped work really is skipped, and
the BLAS property the layout rule relies on.  If another BLAS breaks the
pin, ``test_transposed_weight_gradient_is_bit_identical`` is the alarm.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import pixelfly as pixelfly_kernels
from repro.core.butterfly import random_twiddle
from repro.core.pixelfly import pixelfly_pattern
from repro.experiments.config import METHODS, shl_model
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.structured import _functions
from repro.nn.structured._functions import (
    BlockSparseMultiplyFn,
    ButterflyMultiplyFn,
    CirculantMultiplyFn,
)

DIM = 1024  # the SHL width of Tables 4 and 5
BATCH = 50


def _batches(steps: int, rows: int = BATCH):
    """float32 batches, like the synthetic CIFAR-10 data."""
    rng = np.random.default_rng(0)
    return [
        (
            rng.standard_normal((rows, DIM)).astype(np.float32),
            rng.integers(0, 10, rows),
        )
        for _ in range(steps)
    ]


def _train(method: str, input_requires_grad: bool, steps: int = 3):
    model = shl_model(method, dim=DIM, seed=2)
    opt = nn.SGD(model.parameters(), lr=0.01, momentum=0.9)
    for x, y in _batches(steps):
        opt.zero_grad()
        logits = model(Tensor(x, requires_grad=input_requires_grad))
        nn.cross_entropy(logits, y).backward()
        opt.step()
    return model, opt


class TestSkippedInputGradients:
    @pytest.mark.parametrize("method", METHODS)
    def test_skipping_changes_no_bit(self, method):
        (m_skip, o_skip), (m_full, o_full) = (
            _train(method, flag) for flag in (False, True)
        )
        for (name, p_skip), (_, p_full) in zip(
            m_skip.named_parameters(), m_full.named_parameters()
        ):
            assert p_skip.data.tobytes() == p_full.data.tobytes(), name
        for v_skip, v_full in zip(o_skip._velocity, o_full._velocity):
            assert v_skip.tobytes() == v_full.tobytes()

    @pytest.mark.parametrize("input_requires_grad", [False, True])
    def test_data_gradient_work_runs_only_when_read(
        self, monkeypatch, input_requires_grad
    ):
        segment_sums = []
        real_segment_sum = pixelfly_kernels._segment_sum

        def spy_segment_sum(partial, *args):
            segment_sums.append(partial.shape)
            return real_segment_sum(partial, *args)

        matmul_grads = []
        real_backward = F.MatMul.backward

        def spy_backward(self, grad):
            grads = real_backward(self, grad)
            matmul_grads.append((self.a, grads))
            return grads

        monkeypatch.setattr(pixelfly_kernels, "_segment_sum", spy_segment_sum)
        monkeypatch.setattr(F.MatMul, "backward", spy_backward)
        x, y = _batches(1)[0]
        model = shl_model("Pixelfly", dim=DIM, seed=2)
        loss = nn.cross_entropy(
            model(Tensor(x, requires_grad=input_requires_grad)), y
        )
        assert not segment_sums  # the forward streams by block slot
        loss.backward()
        # The block-sparse grad_x is the backward's only segmented sum.
        assert len(segment_sums) == (1 if input_requires_grad else 0)
        data_grads = [grads[0] for a, grads in matmul_grads if a is x]
        assert len(data_grads) == 1  # the low-rank term's x @ v
        assert (data_grads[0] is not None) == input_requires_grad

    def test_needs_input_grad_follows_requires_grad_and_grad_mode(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        out = F.matmul(x, w)
        assert out._ctx.needs_input_grad == (False, True)
        with nn.no_grad():
            assert not F.matmul(x, w).requires_grad


class TestButterflyForwardWithoutGrad:
    """When no input needs a gradient, the butterfly forward keeps no
    level inputs, and its output keeps every byte."""

    @pytest.mark.parametrize("increasing_stride", [True, False])
    @pytest.mark.parametrize("batch", [1, 3, 200])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_keeps_no_level_inputs(
        self, monkeypatch, dtype, batch, increasing_stride
    ):
        rng = np.random.default_rng(batch)
        twiddle = random_twiddle(1024, seed=rng, dtype=dtype)
        x = rng.standard_normal((batch, 1024)).astype(dtype)
        with_grad = ButterflyMultiplyFn.apply(
            Tensor(twiddle, requires_grad=True), Tensor(x), increasing_stride
        )
        assert with_grad._ctx.inputs  # the grad-on forward keeps them

        def keeps_inputs(*args):
            raise AssertionError("no backward reads the level inputs")

        monkeypatch.setattr(
            _functions, "butterfly_multiply_with_intermediates", keeps_inputs
        )
        with nn.no_grad():
            out = ButterflyMultiplyFn.apply(
                Tensor(twiddle, requires_grad=True),
                Tensor(x),
                increasing_stride,
            )
        assert out.dtype == with_grad.dtype == dtype
        assert out.data.tobytes() == with_grad.data.tobytes()


class TestGradientLayout:
    @pytest.mark.parametrize("method", ["Baseline", "Low-rank", "Pixelfly"])
    def test_parameter_gradients_are_c_ordered(self, method):
        model = shl_model(method, dim=DIM, seed=2)
        x, y = _batches(1)[0]
        nn.cross_entropy(model(Tensor(x)), y).backward()
        for name, p in model.named_parameters():
            assert p.grad.flags.c_contiguous, name

    @pytest.mark.parametrize(
        "rows, k, n, dtype",
        [
            (50, 1024, 1024, np.float64),  # Baseline hidden layer
            (50, 96, 1024, np.float64),  # pixelfly's rank-96 u
            (50, 1024, 10, np.float64),  # every classifier
            (30, 1024, 10, np.float64),  # a short last batch
            (50, 1024, 1024, np.float32),  # Baseline on the float32 data
            (30, 1024, 1024, np.float32),
        ],
    )
    def test_transposed_weight_gradient_is_bit_identical(
        self, rows, k, n, dtype
    ):
        rng = np.random.default_rng(rows + k + n)
        x = rng.standard_normal((rows, k)).astype(dtype)
        grad = rng.standard_normal((rows, n))
        assert x.flags.c_contiguous
        assert (grad.T @ x).T.tobytes() == (x.T @ grad).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matmul_weight_gradient_matches_plain_product(self, order):
        """C-ordered inputs take the transposed product, F-ordered ones
        keep ``a.T @ grad``; both give that product's bits, and a C-ordered
        input gives the weight a C-ordered gradient."""
        rng = np.random.default_rng(3)
        a = np.asarray(rng.standard_normal((50, DIM)), order=order)
        w = Tensor(rng.standard_normal((10, DIM)), requires_grad=True)
        out = F.matmul(Tensor(a), w.T)
        grad = rng.standard_normal(out.shape)
        out.backward(grad)
        assert w.grad.tobytes() == (a.T @ grad).T.tobytes()
        assert w.grad.flags.c_contiguous == (order == "C")


class TestOneDimensionalInput:
    """A 1-D ``x`` runs backward as it runs forward: as a batch of one."""

    def _check(self, apply, param, x, grad):
        p1, x1 = (Tensor(a, requires_grad=True) for a in (param, x))
        apply(p1, x1).backward(grad)
        p2, x2 = (Tensor(a, requires_grad=True) for a in (param, x[None]))
        apply(p2, x2).backward(grad[None])
        assert x1.grad.shape == x.shape
        np.testing.assert_array_equal(x1.grad, x2.grad[0])
        np.testing.assert_array_equal(p1.grad, p2.grad)

    def test_block_sparse(self, rng):
        pattern = pixelfly_pattern(64, block_size=8)
        self._check(
            lambda b, x: BlockSparseMultiplyFn.apply(b, x, pattern),
            rng.standard_normal((pattern.n_blocks, 8, 8)),
            rng.standard_normal(64),
            rng.standard_normal(64),
        )

    def test_circulant(self, rng):
        self._check(
            CirculantMultiplyFn.apply,
            rng.standard_normal(16),
            rng.standard_normal(16),
            rng.standard_normal(16),
        )

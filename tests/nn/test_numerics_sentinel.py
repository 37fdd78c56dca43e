"""Tests for the trainer's numerics sentinel (NumericsError + rollback).

A NaN planted in one training example poisons exactly one batch (with
``shuffle=False``), giving a deterministic trigger step: the forward
pass stays finite but the gradient of the first layer goes non-finite,
which the sentinel must catch before the optimiser applies it.
"""

import warnings

import numpy as np
import pytest

from repro import nn
from repro.faults.checkpoint import CheckpointManager
from repro.nn import ArrayDataset, DataLoader, NumericsError, Trainer
from repro.obs.metrics import collecting


def _poisoned_dataset(n=60, dim=4, classes=3, seed=0, poison_row=40):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, size=n)
    if poison_row is not None:
        x[poison_row, 0] = np.nan
    return ArrayDataset(x, y)


def _trainer(seed=0):
    model = nn.Sequential(
        nn.Linear(4, 8, seed=seed), nn.ReLU(), nn.Linear(8, 3, seed=seed + 1)
    )
    return Trainer(model, nn.SGD(model.parameters(), lr=0.05))


def _loader(ds):
    # batch_size 16 → the poisoned row 40 lands in batch index 2,
    # i.e. global step 3 of epoch 0.
    return DataLoader(ds, 16, shuffle=False)


class TestSentinel:
    def test_nonfinite_gradient_raises_with_context(self):
        trainer = _trainer()
        with pytest.raises(NumericsError) as excinfo:
            trainer.fit(_loader(_poisoned_dataset()), epochs=2)
        err = excinfo.value
        assert err.epoch == 0
        assert err.step == 3
        assert err.param is not None  # a named parameter is identified
        assert err.rolled_back_to_step is None
        assert "numerics fault at epoch 0, step 3" in str(err)

    def test_nonfinite_loss_raises(self):
        # An inf planted large enough poisons the loss itself.
        ds = _poisoned_dataset(poison_row=None)
        ds.x[40, 0] = np.inf
        trainer = _trainer()
        # inf - inf in the softmax's max shift is the poisoned loss.
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(NumericsError) as excinfo:
                trainer.fit(_loader(ds), epochs=1)
        assert excinfo.value.step == 3

    def test_clean_run_does_not_raise(self):
        trainer = _trainer()
        history = trainer.fit(
            _loader(_poisoned_dataset(poison_row=None)), epochs=2
        )
        assert len(history.train_loss) == 2

    def test_counter_increments(self):
        trainer = _trainer()
        with collecting() as registry:
            with pytest.raises(NumericsError):
                trainer.fit(_loader(_poisoned_dataset()), epochs=1)
        by_name = {e["name"]: e for e in registry.snapshot()}
        assert by_name["trainer.numerics_errors"]["value"] == 1


class TestNonfiniteGradientCheck:
    """The check sums a gradient first and scans its elements only when
    the sum is not finite; its verdict is the element scan's."""

    @pytest.mark.parametrize(
        "bad, want",
        [
            ((), None),
            ((np.nan,), "layer0.weight"),
            ((np.inf,), "layer0.weight"),
            ((-np.inf,), "layer0.weight"),
            ((np.inf, -np.inf), "layer0.weight"),  # the sum is NaN
        ],
    )
    def test_verdict_is_the_element_scan(self, bad, want):
        trainer = _trainer()
        for p in trainer.model.parameters():
            p.grad = np.ones(p.shape)
        trainer.model.layer0.weight.grad.flat[: len(bad)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trainer._nonfinite_gradient() == want

    def test_finite_terms_whose_sum_overflows_pass(self):
        trainer = _trainer()
        for p in trainer.model.parameters():
            p.grad = np.full(p.shape, np.finfo(np.float64).max)
        with np.errstate(over="ignore"):
            assert not np.isfinite(trainer.model.layer0.weight.grad.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trainer._nonfinite_gradient() is None


class TestRollback:
    def test_rolls_back_to_last_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        trainer = _trainer()
        with pytest.raises(NumericsError) as excinfo:
            trainer.fit(
                _loader(_poisoned_dataset()),
                epochs=1,
                checkpoint=manager,
                checkpoint_every=1,
            )
        err = excinfo.value
        assert err.step == 3
        assert err.rolled_back_to_step == 2  # last good step's checkpoint
        assert "rolled back" in str(err)
        # The restored weights are the checkpointed (finite) ones.
        for _, param in trainer.model.named_parameters():
            assert np.isfinite(param.data).all()

    def test_no_checkpoint_written_yet_means_no_rollback(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        trainer = _trainer()
        ds = _poisoned_dataset(poison_row=None)
        ds.x[4, 0] = np.nan  # poisons batch 0 → step 1, before any ckpt
        with pytest.raises(NumericsError) as excinfo:
            trainer.fit(
                _loader(ds),
                epochs=1,
                checkpoint=manager,
                checkpoint_every=1,
            )
        err = excinfo.value
        assert err.step == 1
        assert err.rolled_back_to_step is None
        assert "no checkpoint available" in str(err)

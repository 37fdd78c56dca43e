"""Tests for the data pipeline and trainer."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ArrayDataset, DataLoader, Trainer, train_val_split


def toy_dataset(n=100, dim=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    w = rng.standard_normal((dim, classes))
    y = (x @ w).argmax(axis=1)
    return ArrayDataset(x, y)


class TestDataset:
    def test_length(self):
        assert len(toy_dataset(50)) == 50

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_subset(self):
        ds = toy_dataset(10)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.x[0], ds.x[1])
        assert not np.shares_memory(sub.x, ds.x)


class TestSplit:
    def test_fraction(self):
        train, val = train_val_split(toy_dataset(100), 0.15, seed=0)
        assert len(val) == 15 and len(train) == 85

    def test_disjoint_and_complete(self):
        ds = toy_dataset(40)
        train, val = train_val_split(ds, 0.25, seed=1)
        combined = np.concatenate([train.x, val.x])
        assert combined.shape == ds.x.shape
        # Every original row appears exactly once.
        orig = {tuple(r) for r in ds.x.round(6)}
        new = {tuple(r) for r in combined.round(6)}
        assert orig == new

    def test_deterministic(self):
        a1, _ = train_val_split(toy_dataset(30), 0.2, seed=5)
        a2, _ = train_val_split(toy_dataset(30), 0.2, seed=5)
        np.testing.assert_array_equal(a1.x, a2.x)

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            train_val_split(toy_dataset(10), 1.0)


class TestDataLoader:
    def test_batch_count(self):
        loader = DataLoader(toy_dataset(103), batch_size=10, shuffle=False)
        assert len(loader) == 11
        batches = list(loader)
        assert len(batches) == 11
        assert batches[-1][0].shape[0] == 3

    def test_no_shuffle_preserves_order(self):
        ds = toy_dataset(20)
        loader = DataLoader(ds, batch_size=7, shuffle=False)
        x, _ = next(iter(loader))
        np.testing.assert_array_equal(x, ds.x[:7])

    def test_shuffle_changes_order_between_epochs(self):
        loader = DataLoader(toy_dataset(50), batch_size=50, seed=0)
        first = next(iter(loader))[0].copy()
        second = next(iter(loader))[0]
        assert not np.array_equal(first, second)

    def test_covers_all_samples_when_shuffled(self):
        ds = toy_dataset(37)
        loader = DataLoader(ds, batch_size=8, seed=0)
        seen = np.concatenate([y for _, y in loader])
        assert len(seen) == 37

    def test_validation(self):
        with pytest.raises(ValueError):
            DataLoader(toy_dataset(5), batch_size=0)

    def test_same_seed_same_order(self):
        ds = toy_dataset(40)
        a = next(iter(DataLoader(ds, batch_size=40, seed=3)))[0]
        b = next(iter(DataLoader(ds, batch_size=40, seed=3)))[0]
        np.testing.assert_array_equal(a, b)

    def test_loader_stream_independent_of_split_seed(self):
        # Regression: DataLoader and train_val_split both default to
        # seed=0, and the loader's first-epoch shuffle used to be the
        # exact same permutation as the split's.
        n = 64
        ds = ArrayDataset(np.arange(n), np.arange(n))
        split_perm = np.random.default_rng(0).permutation(n)
        loader = DataLoader(ds, batch_size=n, seed=0)
        epoch_perm = next(iter(loader))[0]
        assert not np.array_equal(epoch_perm, split_perm)

    def test_generator_seed_spawns_independent_stream(self):
        # Regression: integer seeds were spawned into a child stream but
        # an explicit Generator was adopted *directly*, so a driver
        # handing one generator to the split and its loader got the
        # same permutation on both sides — the exact aliasing the
        # integer path already guarded against.
        n = 64
        ds = ArrayDataset(np.arange(n), np.arange(n))
        rng = np.random.default_rng(9)
        direct_perm = np.random.default_rng(9).permutation(n)
        loader = DataLoader(ds, batch_size=n, seed=rng)
        epoch_perm = next(iter(loader))[0]
        assert not np.array_equal(epoch_perm, direct_perm)
        # The caller's generator stream is left untouched by the spawn.
        np.testing.assert_array_equal(rng.permutation(n), direct_perm)

    def test_generator_seed_deterministic_and_distinct_per_loader(self):
        n = 32
        ds = ArrayDataset(np.arange(n), np.arange(n))
        rng = np.random.default_rng(7)
        a = next(iter(DataLoader(ds, batch_size=n, seed=rng)))[0]
        b = next(iter(DataLoader(ds, batch_size=n, seed=rng)))[0]
        # Two loaders sharing one generator draw *different* streams...
        assert not np.array_equal(a, b)
        # ...and the whole arrangement replays bit-identically.
        rng2 = np.random.default_rng(7)
        a2 = next(iter(DataLoader(ds, batch_size=n, seed=rng2)))[0]
        b2 = next(iter(DataLoader(ds, batch_size=n, seed=rng2)))[0]
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)


class TestTrainer:
    def _trainer(self, lr=0.05):
        model = nn.Sequential(
            nn.Linear(6, 16, seed=0), nn.ReLU(), nn.Linear(16, 3, seed=1)
        )
        return Trainer(model, nn.SGD(model.parameters(), lr=lr, momentum=0.9))

    def test_loss_decreases(self):
        ds = toy_dataset(200)
        trainer = self._trainer()
        history = trainer.fit(DataLoader(ds, 20, seed=0), epochs=15)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_learns_separable_task(self):
        ds = toy_dataset(300)
        trainer = self._trainer()
        history = trainer.fit(DataLoader(ds, 20, seed=0), epochs=25)
        assert history.train_accuracy[-1] > 0.8

    def test_history_shapes(self):
        ds = toy_dataset(60)
        tr, va = train_val_split(ds, 0.2, seed=0)
        trainer = self._trainer()
        history = trainer.fit(
            DataLoader(tr, 16, seed=0),
            DataLoader(va, 16, shuffle=False),
            epochs=3,
        )
        assert len(history.train_loss) == 3
        assert len(history.val_accuracy) == 3
        assert history.steps == 3 * len(DataLoader(tr, 16))

    def test_train_val_time_split(self):
        # Regression: validation passes used to be folded into the
        # training wall clock, skewing the Table 4 protocol.
        ds = toy_dataset(60)
        tr, va = train_val_split(ds, 0.2, seed=0)
        trainer = self._trainer()
        history = trainer.fit(
            DataLoader(tr, 16, seed=0),
            DataLoader(va, 16, shuffle=False),
            epochs=2,
        )
        assert history.train_time_s > 0
        assert history.val_time_s > 0

    def test_gradients_released_before_validation(self, monkeypatch):
        ds = toy_dataset(60)
        tr, va = train_val_split(ds, 0.2, seed=0)
        trainer = self._trainer()
        params = trainer.model.parameters()
        seen = []
        evaluate = trainer.evaluate

        def spy(loader):
            seen.append([p.grad for p in params])
            return evaluate(loader)

        monkeypatch.setattr(trainer, "evaluate", spy)
        trainer.fit(
            DataLoader(tr, 16, seed=0),
            DataLoader(va, 16, shuffle=False),
            epochs=2,
        )
        assert len(seen) == 2
        assert all(g is None for grads in seen for g in grads)
        assert all(p.grad is None for p in params)

    def test_no_val_loader_means_zero_val_time(self):
        ds = toy_dataset(40)
        trainer = self._trainer()
        history = trainer.fit(DataLoader(ds, 20, seed=0), epochs=1)
        assert history.val_time_s == 0.0
        assert history.train_time_s > 0

    def test_evaluate_runs_in_eval_mode(self):
        ds = toy_dataset(30)
        norm = nn.BatchNorm1d(6)
        model = nn.Sequential(norm, nn.Linear(6, 3, seed=0))
        trainer = Trainer(model, nn.SGD(model.parameters(), lr=0.01))
        trainer.fit(DataLoader(ds, 10, seed=0), epochs=1)
        running = norm.running_mean.copy(), norm.running_var.copy()
        loss1, _ = trainer.evaluate(DataLoader(ds, 10, shuffle=False))
        loss2, _ = trainer.evaluate(DataLoader(ds, 10, shuffle=False))
        # Eval mode normalises with the running statistics and leaves
        # them be; a training-mode forward would update them.
        np.testing.assert_array_equal(norm.running_mean, running[0])
        np.testing.assert_array_equal(norm.running_var, running[1])
        assert loss1 == loss2

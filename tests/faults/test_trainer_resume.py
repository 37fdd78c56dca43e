"""Trainer checkpoint/resume: bit-identical restarts, exhaustion errors,
optimizer and loader state snapshots."""

import numpy as np
import pytest

from repro.faults.checkpoint import CheckpointError, CheckpointManager
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer


def make_dataset(n=120, dim=8, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.normal(size=(n, dim)), rng.integers(0, classes, size=n)
    )


def make_trainer(dataset, seed=0):
    model = Sequential(
        Linear(8, 16, seed=seed), ReLU(), Linear(16, 3, seed=seed + 1)
    )
    return Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9))


def make_loaders(dataset):
    return (
        DataLoader(dataset, batch_size=10, seed=1),
        DataLoader(dataset, batch_size=10, seed=2),
    )


class _Killed(Exception):
    pass


def fit_with_kill(trainer, loaders, kill_after, **kwargs):
    """Run fit() but raise after `kill_after` optimisation steps."""
    inner = trainer.train_step
    count = [0]

    def dying(x, y):
        if count[0] == kill_after:
            raise _Killed()
        count[0] += 1
        return inner(x, y)

    trainer.train_step = dying
    try:
        trainer.fit(*loaders, **kwargs)
    except _Killed:
        return True
    finally:
        trainer.train_step = inner
    return False


@pytest.mark.parametrize("kill_after", [7, 17, 24])
def test_kill_resume_bit_identical(tmp_path, kill_after):
    dataset = make_dataset()
    ref = make_trainer(dataset)
    history_ref = ref.fit(*make_loaders(dataset), epochs=3)

    manager = CheckpointManager(tmp_path, keep=3)
    victim = make_trainer(dataset)
    killed = fit_with_kill(
        victim,
        make_loaders(dataset),
        kill_after,
        epochs=3,
        checkpoint=manager,
        checkpoint_every=5,
    )
    assert killed

    survivor = make_trainer(dataset)
    resumed = survivor.fit(
        *make_loaders(dataset),
        epochs=3,
        checkpoint=manager,
        checkpoint_every=5,
    )
    assert resumed.resumed_from_step is not None
    assert resumed.train_loss == history_ref.train_loss
    assert resumed.train_accuracy == history_ref.train_accuracy
    assert resumed.val_loss == history_ref.val_loss
    assert resumed.val_accuracy == history_ref.val_accuracy
    assert resumed.steps == history_ref.steps
    assert resumed.steps_per_epoch == history_ref.steps_per_epoch
    ref_params = ref.model.state_dict()
    res_params = survivor.model.state_dict()
    for key in ref_params:
        np.testing.assert_array_equal(ref_params[key], res_params[key])


def test_resume_after_completion_is_noop(tmp_path):
    dataset = make_dataset()
    manager = CheckpointManager(tmp_path)
    trainer = make_trainer(dataset)
    done = trainer.fit(*make_loaders(dataset), epochs=2, checkpoint=manager)
    params = {k: v.copy() for k, v in trainer.model.state_dict().items()}
    again = trainer.fit(*make_loaders(dataset), epochs=2, checkpoint=manager)
    assert again.resumed_from_step == done.steps
    assert again.train_loss == done.train_loss
    for key, value in trainer.model.state_dict().items():
        np.testing.assert_array_equal(value, params[key])


def test_steps_per_epoch_recorded():
    dataset = make_dataset(n=95)  # 10 batches of 10 (no drop_last)
    trainer = make_trainer(dataset)
    history = trainer.fit(DataLoader(dataset, batch_size=10, seed=1), epochs=2)
    assert history.steps_per_epoch == [10, 10]
    assert history.steps == 20
    assert history.resumed_from_step is None


def test_exhausted_loader_raises():
    dataset = make_dataset(n=5)
    loader = DataLoader(dataset, batch_size=10, drop_last=True, seed=1)
    trainer = make_trainer(dataset)
    with pytest.raises(ValueError, match="exhausted"):
        trainer.fit(loader, epochs=1)


def test_checkpoint_cursor_mismatch_raises(tmp_path):
    """A checkpoint whose cursor exceeds the loader's epoch length is a
    mismatched-loader error, not silent corruption."""
    big = make_dataset(n=200)
    manager = CheckpointManager(tmp_path, keep=3)
    victim = make_trainer(big)
    fit_with_kill(
        victim,
        (DataLoader(big, batch_size=10, seed=1), None),
        kill_after=17,
        epochs=2,
        checkpoint=manager,
        checkpoint_every=15,
    )
    small_loader = DataLoader(make_dataset(n=50), batch_size=10, seed=1)
    with pytest.raises((CheckpointError, KeyError, ValueError)):
        make_trainer(big).fit(
            small_loader, epochs=2, checkpoint=manager
        )


def test_checkpoint_every_requires_manager():
    dataset = make_dataset()
    with pytest.raises(ValueError, match="CheckpointManager"):
        make_trainer(dataset).fit(
            DataLoader(dataset, seed=1), epochs=1, checkpoint_every=5
        )
    with pytest.raises(ValueError, match="checkpoint_every"):
        make_trainer(dataset).fit(
            DataLoader(dataset, seed=1), epochs=1, checkpoint_every=-2
        )


def test_resume_false_starts_fresh(tmp_path):
    dataset = make_dataset()
    manager = CheckpointManager(tmp_path)
    trainer = make_trainer(dataset)
    trainer.fit(*make_loaders(dataset), epochs=1, checkpoint=manager)
    fresh = make_trainer(dataset)
    history = fresh.fit(
        *make_loaders(dataset),
        epochs=1,
        checkpoint=manager,
        resume=False,
    )
    assert history.resumed_from_step is None


class TestOptimizerStateDict:
    def test_sgd_velocity_roundtrip(self):
        dataset = make_dataset()
        trainer = make_trainer(dataset)
        trainer.fit(DataLoader(dataset, seed=1), epochs=1)
        state = trainer.optimizer.state_dict()
        clone = make_trainer(dataset).optimizer
        clone.load_state_dict(state)
        for a, b in zip(clone._velocity, trainer.optimizer._velocity):
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)

    def test_slot_mismatch_rejected(self):
        sgd = make_trainer(make_dataset()).optimizer
        foreign = {"scalars": {}, "slots": {"m": [None] * len(sgd.params)}}
        with pytest.raises(KeyError, match="state mismatch"):
            sgd.load_state_dict(foreign)

    def test_state_dict_is_a_copy(self):
        dataset = make_dataset()
        trainer = make_trainer(dataset)
        trainer.fit(DataLoader(dataset, seed=1), epochs=1)
        state = trainer.optimizer.state_dict()
        state["slots"]["velocity"][0][:] = 999.0
        assert not np.array_equal(
            trainer.optimizer._velocity[0], state["slots"]["velocity"][0]
        )


class TestLoaderRngState:
    def test_snapshot_restores_permutation(self):
        dataset = make_dataset()
        loader = DataLoader(dataset, batch_size=10, seed=3)
        state = loader.rng_state()
        first = [y.tolist() for _, y in loader]
        loader.set_rng_state(state)
        replay = [y.tolist() for _, y in loader]
        assert first == replay
